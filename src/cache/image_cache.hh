/**
 * @file
 * MoDM's final-image cache (paper §3.1, §5.4).
 *
 * The cache stores *final generated images* plus their CLIP image
 * embeddings — the model-agnostic design that lets any diffusion model
 * family consume cached content. Retrieval is text-to-image cosine
 * similarity (paper Eq. 1) over a flat embedding index.
 *
 * Eviction policies:
 *  - FIFO: the paper's choice — a sliding window over recent generations,
 *    justified by the strong temporal locality of production traffic
 *    (>90 % of hits retrieve images generated within 4 h, Fig. 15) and
 *    by the diversity benefit of automatically expiring popular items.
 *  - LRU and Utility: provided for the cache-policy ablation. Utility
 *    eviction uses sampled eviction (candidate sampling, as production
 *    caches do) to stay O(1)-ish per insert.
 */

#ifndef MODM_CACHE_IMAGE_CACHE_HH
#define MODM_CACHE_IMAGE_CACHE_HH

#include <cstdint>
#include <deque>
#include <list>
#include <string>
#include <unordered_map>

#include <memory>

#include "src/common/rng.hh"
#include "src/common/row_store.hh"
#include "src/diffusion/image.hh"
#include "src/embedding/encoder.hh"
#include "src/embedding/vector_index.hh"

namespace modm::cache {

/** Cache eviction policy. */
enum class EvictionPolicy
{
    FIFO,     ///< sliding window (the paper's choice)
    LRU,      ///< least-recently-hit
    Utility,  ///< keep frequently-hit items (Nirvana-style utility)
};

/** Printable policy name. */
const char *policyName(EvictionPolicy policy);

/** One cached image plus retrieval metadata. */
struct CacheEntry
{
    diffusion::Image image;
    /** Slot of the CLIP image embedding in the cache's row slab. */
    RowStore::Slot embeddingSlot = 0;
    double insertTime = 0.0;
    double lastHitTime = 0.0;
    std::uint64_t hits = 0;
};

/** Result of a cache lookup. */
struct RetrievalResult
{
    /** True when the cache is non-empty and a best match exists. */
    bool found = false;
    /** Best-match entry id (image id). */
    std::uint64_t entryId = 0;
    /** Cosine similarity of the best match. */
    double similarity = -1.0;
    /**
     * True when this lookup was compared against an exhaustive scan
     * (approximate backends with recall tracking on).
     */
    bool exactChecked = false;
    /** When checked: did the backend return the exact best entry? */
    bool exactAgreed = false;
};

/** Aggregate cache statistics. */
struct ImageCacheStats
{
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hitsRecorded = 0;
    /** Times the FIFO deque was compacted to drop stale slots. */
    std::uint64_t fifoCompactions = 0;
    /** Lookups compared against an exhaustive scan (recall@1). */
    std::uint64_t recallChecked = 0;
    /** Checked lookups where the backend matched the exact best. */
    std::uint64_t recallAgreed = 0;
};

/**
 * Fixed-capacity image cache with embedding retrieval.
 *
 * The cache doubles as the retrieval backend's RowSource: it already
 * stores every entry's embedding, so quantized backends (IVF-PQ)
 * re-rank their shortlists against exact rows at no extra memory.
 */
class ImageCache : public embedding::RowSource
{
  public:
    /**
     * @param capacity Maximum number of cached images.
     * @param policy Eviction policy.
     * @param encoder_config Image-tower configuration for embedding
     *        inserted images.
     * @param seed Seed for sampled utility eviction.
     * @param retrieval Retrieval-backend selection and tuning; the
     *        default is the exact flat scan.
     */
    ImageCache(std::size_t capacity, EvictionPolicy policy,
               embedding::ImageEncoderConfig encoder_config = {},
               std::uint64_t seed = 1,
               embedding::RetrievalBackendConfig retrieval = {});

    /**
     * Pre-size the entry map, retrieval index, and LRU bookkeeping for
     * `expected` entries (clamped to capacity). Called before warm-up
     * so bulk insertion pays neither repeated embedding-row
     * reallocation nor hash rehashing.
     */
    void reserve(std::size_t expected);

    /**
     * Insert an image at simulated time `now`, embedding it with the
     * image tower and evicting per policy when full.
     */
    void insert(const diffusion::Image &image, double now);

    /** Best match for a query embedding (no threshold applied). */
    RetrievalResult retrieve(const embedding::Embedding &query) const;

    /**
     * Record that a retrieval was used (affects LRU/Utility ordering).
     */
    void recordHit(std::uint64_t entry_id, double now);

    /** Entry access; panics when absent. */
    const CacheEntry &entry(std::uint64_t entry_id) const;

    /** True when the id is cached. */
    bool contains(std::uint64_t entry_id) const;

    /** Number of cached images. */
    std::size_t size() const { return entries_.size(); }

    /** Capacity. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Change the capacity mid-run (scripted knob change). Shrinking
     * evicts down to the new bound under the active eviction policy;
     * growing just raises the bound.
     */
    void setCapacity(std::size_t capacity);

    /** Total bytes of cached images (storage accounting). */
    double storedBytes() const { return storedBytes_; }

    /** Statistics. */
    const ImageCacheStats &stats() const { return stats_; }

    /** Active policy. */
    EvictionPolicy policy() const { return policy_; }

    /**
     * Serving load in [0, 1], forwarded to the retrieval backend for
     * load-adaptive search (IVF adaptiveNprobe, HNSW adaptiveEfSearch);
     * exact backends ignore it.
     */
    void setRetrievalLoad(double load) { index_->setLoadSignal(load); }

    /** Runtime efSearch override (scenario knob); 0 ignored. */
    void setRetrievalEf(std::size_t ef) { index_->setEfSearch(ef); }

    /** Runtime nprobe override (scenario knob); 0 ignored. */
    void setRetrievalNprobe(std::size_t nprobe)
    {
        index_->setNprobe(nprobe);
    }

    /** Bytes the retrieval backend holds (memory-budget axis). */
    std::size_t retrievalMemoryBytes() const
    {
        return index_->memoryBytes();
    }

    /**
     * Exact-row oracle over cached entries (RowSource): returns the
     * slab row in place — quantized backends re-rank against it with
     * zero copies (rowAccesses() counts the handed-out pointers so
     * tests can pin the zero-copy path).
     */
    const float *row(std::uint64_t id) const override
    {
        const auto it = entries_.find(id);
        if (it == entries_.end())
            return nullptr;
        ++rowAccesses_;
        return rows_.row(it->second.embeddingSlot);
    }

    /** Slab-row pointers handed out through the RowSource. */
    std::uint64_t rowAccesses() const { return rowAccesses_; }

    /** The retrieval backend (exposed for tests and benchmarks). */
    const embedding::VectorIndex &index() const { return *index_; }

    /** Active retrieval-backend configuration. */
    const embedding::RetrievalBackendConfig &retrievalConfig() const
    {
        return retrieval_;
    }

    /**
     * Slots currently held by the FIFO deque, live + stale. Bounded at
     * roughly twice the live entry count by opportunistic compaction
     * (exposed so tests can pin the bound).
     */
    std::size_t fifoSlots() const { return fifo_.size(); }

    /** Remove everything. */
    void clear();

  private:
    void evictOne();
    std::uint64_t pickUtilityVictim();
    void erase(std::uint64_t id);
    /** Drop stale fifo slots once they outnumber live ones. */
    void compactFifo();

    std::size_t capacity_;
    EvictionPolicy policy_;
    embedding::ImageEncoder encoder_;
    embedding::RetrievalBackendConfig retrieval_;
    mutable Rng rng_;

    std::unordered_map<std::uint64_t, CacheEntry> entries_;
    /** Embedding rows, slot-addressed from CacheEntry (stable slab
     *  pointers, freelist reuse on eviction). */
    RowStore rows_;
    mutable std::uint64_t rowAccesses_ = 0;
    std::unique_ptr<embedding::VectorIndex> index_;
    std::deque<std::uint64_t> fifo_;          // FIFO order
    std::list<std::uint64_t> lruOrder_;       // front = least recent
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        lruPos_;
    std::size_t staleFifo_ = 0; // fifo_ ids no longer in entries_
    double storedBytes_ = 0.0;
    ImageCacheStats stats_;
};

} // namespace modm::cache

#endif // MODM_CACHE_IMAGE_CACHE_HH
