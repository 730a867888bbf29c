/**
 * @file
 * Runtime-dispatched dot-product kernels for the retrieval hot path.
 *
 * Every VectorIndex backend (Flat scans, IVF centroid assignment and
 * list scans, HNSW neighbor expansion, IVF-PQ ADC table builds) bottoms
 * out in "one query against many rows". This layer centralizes that
 * loop behind a tier picked once at startup via CPUID, one per ISA:
 *
 *   scalar    portable C++ (the fallback on every CPU without
 *             AVX2+FMA)
 *   avx2      FMA, 8 rows per block + software prefetch of the next
 *             block
 *
 * Two families of entry points share the tiers:
 *
 *  - Float rows (dot, dotBatch, dotGather, topKBatch, bestBatch): IVF,
 *    HNSW and IVF-PQ. Exact double scores.
 *  - Split rows (bestSplit, topKSplit): FlatIndex. Each float row is
 *    stored as two 16-bit planes — `hi`, the top half of every float
 *    (the float truncated to bf16), and `lo`, the bottom half — so
 *    (hi << 16) | lo is the float, bit for bit, and the planes take
 *    exactly the float row's bytes. A query first runs a float32
 *    filter over the hi plane only (half the bytes), then re-scores
 *    in double every row the filter cannot rule out. See "Two-stage
 *    exactness" below.
 *
 * Determinism contract: scalar and avx2 produce BIT-IDENTICAL double
 * scores. Both accumulate stripe j = elements i % 4 == j in i order,
 * combine (s0+s1)+(s2+s3), then fold the remainder sequentially. Each
 * float product is exact in double (24+24 < 53 significand bits), so
 * AVX2's fused multiply-add rounds exactly once per element — the
 * same rounding the scalar `acc += (double)a*(double)b` performs.
 * Frozen serving digests therefore do not move when dispatch upgrades
 * the tier, and the CI kernels job diffs MODM_KERNEL=scalar against
 * the default byte for byte.
 *
 * The float32 filter is pinned the same way although nothing depends
 * on its exact value: 8 lanes, lane k accumulating elements i with
 * (i % 16) / 2 == k in i order by fused multiply-add (std::fma in the
 * scalar tier), reduced ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), then a
 * sequential fma remainder. Filter scores — and so the set of rows
 * re-scored — are identical across tiers, which the tests assert.
 *
 * Two-stage exactness. Let d_r be row r's double score (what the
 * float-row kernels return), f_r its filter score, R >= every row's
 * L2 norm and q the query. Then |f_r - d_r| <= e with
 *
 *   e = (2^-7 + g(2^-24) + g(2^-53)) * |q|_2 * R
 *       + 2^-133 * |q|_1 + n * 2^-146,      g(u) = n*u / (1 - n*u):
 *
 * 2^-7 bounds bf16 truncation (|x - hi(x)| <= 2^-7 |x|, plus 2^-133
 * per subnormal), g(2^-24) the float32 accumulation (at most n
 * roundings per term) and g(2^-53) the double one, all against
 * sum |q_i x_i| <= |q|_2 * R; n * 2^-146 covers float underflow. The
 * winner w has f_w >= d_w - e, and the largest filter score F has
 * F <= d_w + e, so f_w >= F - 2e: every row with f_r >= F - M,
 * M = 2e, survives, ties with the winner included. For top-k, F is
 * the k-th largest filter score (at most k-1 rows can have d > d_k,
 * so F <= d_k + e). Survivors are re-scored from hi|lo with the double
 * kernel and admitted with the float-row entry points' tie-breaks, so
 * the split entry points return the same slots and bit-identical
 * scores. Queries whose |q|_2 * R exceeds 2^100 (float overflow is
 * then possible) or is not finite skip the filter and re-score every
 * row.
 *
 * MODM_KERNEL=scalar|avx2 overrides auto-detection (an unavailable
 * tier falls back to auto with a stderr notice).
 */

#ifndef MODM_COMMON_KERNELS_HH
#define MODM_COMMON_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace modm::kernels {

/** Dispatch tiers, in increasing capability order. */
enum class Tier : int {
    Scalar = 0,
    Avx2 = 1,
};

/** The selected kernel, surfaced in ServingResult / BENCH artifacts. */
struct KernelInfo
{
    Tier tier = Tier::Scalar;
    /** Stable lowercase name: "scalar" | "avx2". */
    const char *name = "scalar";
    /** True when MODM_KERNEL forced this tier. */
    bool fromEnv = false;
};

/** Stable lowercase name for a tier. */
const char *tierName(Tier tier);

/** Compiled in AND supported by this CPU. */
bool tierAvailable(Tier tier);

/** The active kernel (detected once, then cached). */
KernelInfo active();

/**
 * Force a tier (test hook; also used by the MODM_KERNEL override).
 * Returns false — and leaves the active tier unchanged — when the tier
 * is not available. Not thread-safe against in-flight queries; call
 * from single-threaded setup only.
 */
bool setTier(Tier tier);

/** Dispatched single-row dot product (both rows length n). */
double dot(const float *a, const float *b, std::size_t n);

/**
 * One query against `count` contiguous rows: row r starts at
 * rows + r * stride (stride >= n, in floats). Blocks 8 rows per pass so
 * the query stays in registers, and prefetches the next block — on a
 * 1M x 512 scan this is memory-bandwidth-bound and the prefetch is
 * worth more than the vector width. out[r] receives the r-th score.
 */
void dotBatch(const float *query, const float *rows, std::size_t stride,
              std::size_t count, std::size_t n, double *out);

/**
 * One query against `count` scattered rows (HNSW neighbor expansion:
 * candidates are link-ordered, not laid out together). Prefetches every
 * cache line of the following block's rows before scoring the current
 * one.
 */
void dotGather(const float *query, const float *const *rows,
               std::size_t count, std::size_t n, double *out);

/** One scored slot from topKBatch, ordered (score desc, slot asc). */
struct Scored
{
    std::size_t slot = 0;
    double score = 0.0;
};

/**
 * Top-k of one query against contiguous rows, by (score desc, slot
 * asc) — the FlatIndex ordering contract. Slots are relative to
 * `rows`; callers scanning a sub-range add its base offset. Scores come
 * from dotBatch blocks, so ties and sums are bit-identical across
 * tiers that share the summation order.
 */
std::vector<Scored> topKBatch(const float *query, const float *rows,
                              std::size_t stride, std::size_t count,
                              std::size_t n, std::size_t k);

/**
 * Argmax of one query against contiguous rows; earliest slot wins
 * ties (strictly-greater admission).
 * Returns false when count == 0.
 */
bool bestBatch(const float *query, const float *rows, std::size_t stride,
               std::size_t count, std::size_t n, std::size_t *slot,
               double *score);

/** The top 16 bits of a float: the float truncated to bf16. */
inline std::uint16_t
highHalf(float x)
{
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return static_cast<std::uint16_t>(bits >> 16);
}

/** The bottom 16 bits of a float. */
inline std::uint16_t
lowHalf(float x)
{
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return static_cast<std::uint16_t>(bits);
}

/** Rebuild a float from its halves: exact inverse of the split. */
inline float
joinHalves(std::uint16_t hi, std::uint16_t lo)
{
    const std::uint32_t bits = (static_cast<std::uint32_t>(hi) << 16) | lo;
    float x;
    std::memcpy(&x, &bits, sizeof x);
    return x;
}

/**
 * Float rows stored as hi/lo 16-bit planes (FlatIndex's layout): row r
 * is hi + r * stride and lo + r * stride, `n` elements each.
 * normBound must be >= every row's L2 norm (computed in double).
 */
struct SplitRows
{
    const std::uint16_t *hi = nullptr;
    const std::uint16_t *lo = nullptr;
    std::size_t stride = 0; // uint16 elements between rows
    std::size_t count = 0;
    std::size_t n = 0;
    double normBound = 0.0;
};

/**
 * Float32 filter scores of one query against `count` hi-plane rows
 * (the pinned 8-lane order above). out[r] receives row r's score.
 */
void filterBatch(const float *query, const std::uint16_t *hi,
                 std::size_t stride, std::size_t count, std::size_t n,
                 float *out);

/**
 * The filter margin M = 2e for this query (see the file comment),
 * rounded up; +infinity when the filter must be skipped.
 */
double filterMargin(const float *query, std::size_t n, double normBound);

/**
 * bestBatch over split rows, in two stages; same slot and bit-identical
 * score. `rescored`, when given, receives the slots the second stage
 * scored exactly, in slot order (a test and measurement hook).
 * Returns false when rows.count == 0.
 */
bool bestSplit(const float *query, const SplitRows &rows,
               std::size_t *slot, double *score,
               std::vector<std::size_t> *rescored = nullptr);

/** topKBatch over split rows, in two stages; same result. `rescored`
 *  as for bestSplit. */
std::vector<Scored> topKSplit(const float *query, const SplitRows &rows,
                              std::size_t k,
                              std::vector<std::size_t> *rescored = nullptr);

} // namespace modm::kernels

#endif // MODM_COMMON_KERNELS_HH
