/**
 * @file
 * Exact flat cosine retrieval — the Flat backend of the VectorIndex
 * interface (vector_index.hh).
 *
 * The paper stores 100k image embeddings (~0.29 GB of CLIP vectors) and
 * reports retrieval latency of ~0.05 s — negligible against 10+ s of
 * denoising. This index keeps rows in contiguous slot-addressed planes so
 * the brute-force scan is cache-friendly, and supports O(1) removal (swap
 * with the last row) for FIFO/LRU eviction.
 *
 * Each float row is stored split in two 16-bit planes: `hi_` holds the
 * top half of every component (the component truncated to bf16), `lo_`
 * the bottom half. The planes take exactly the float rows' bytes, and
 * (hi << 16) | lo is the inserted float bit for bit. Every query is one
 * serial pass of kernels::bestSplit / topKSplit: a float32 filter over
 * the hi plane (half the bytes of the float rows), then an exact double
 * re-score of each row the filter's rigorous margin cannot rule out.
 * Results are the double scan's — same ids, bit-identical similarities,
 * ordered by (similarity desc, insertion slot asc), a total order
 * reproducible from the insertion sequence alone. The margin scales with
 * `normBound_`, the largest row norm inserted since the last clear().
 * Callers that want more throughput run independent queries (sweep
 * cells, serving nodes) on separate threads instead.
 */

#ifndef MODM_EMBEDDING_INDEX_HH
#define MODM_EMBEDDING_INDEX_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/kernels.hh"
#include "src/common/row_store.hh"
#include "src/embedding/embedding.hh"
#include "src/embedding/vector_index.hh"

namespace modm::embedding {

/**
 * Flat cosine index keyed by caller-assigned 64-bit ids. Exact: every
 * query scans every row.
 */
class FlatIndex final : public VectorIndex
{
  public:
    /** Create an index for embeddings of the given dimensionality. */
    explicit FlatIndex(std::size_t dim = kEmbeddingDim);

    /**
     * Pre-allocate room for `rows` embeddings: one contiguous
     * reservation of the row storage plus hash-map capacity, so bulk
     * insertion (cache warm-up) avoids repeated rows_ reallocation and
     * slotOf_ rehash churn.
     */
    void reserve(std::size_t rows) override;

    /** Insert an embedding under a fresh id; ids must be unique and
     *  every component finite (the filter margin assumes it). */
    void insert(std::uint64_t id, const Embedding &embedding) override;

    /** Remove an id; returns false when absent. */
    bool remove(std::uint64_t id) override;

    /** True when the id is present. */
    bool contains(std::uint64_t id) const override;

    /** Number of stored embeddings. */
    std::size_t size() const override { return ids_.size(); }

    /**
     * Best match for a query, or a Match with similarity -1 when the
     * index is empty.
     */
    Match best(const Embedding &query) const override;

    /** Top-k matches ordered by decreasing similarity (ties: insertion
     *  order). */
    std::vector<Match> topK(const Embedding &query,
                            std::size_t k) const override;

    /** Remove everything. */
    void clear() override;

    /** Row planes + ids + locator payloads; ~4 * dim + 32 per entry.
     *  Counts 4 bytes per component (2 in each plane), dim (not
     *  stride) per row, so the figure is unchanged from the pre-slab
     *  float layout at any dimension. */
    std::size_t memoryBytes() const override
    {
        return ids_.size() * dim_ * sizeof(float) +
            ids_.size() * sizeof(std::uint64_t) +
            locatorBytes(slotOf_.size(), sizeof(std::size_t));
    }

  private:
    /** The planes as the split-row kernels take them. */
    kernels::SplitRows planes() const;

    std::size_t dim_;
    AlignedRows<std::uint16_t> hi_; // slot -> bf16 high halves
    AlignedRows<std::uint16_t> lo_; // slot -> low halves
    /** >= the L2 norm of every row inserted since clear(); never
     *  lowered on remove (a stale, larger bound only widens the
     *  filter margin). */
    double normBound_ = 0.0;
    std::vector<std::uint64_t> ids_;             // slot -> id
    std::unordered_map<std::uint64_t, std::size_t> slotOf_; // id -> slot
};

} // namespace modm::embedding

#endif // MODM_EMBEDDING_INDEX_HH
