/**
 * @file
 * Equivalence tests for the dispatched dot kernels (kernels.hh) and
 * unit tests for the aligned row containers (row_store.hh).
 *
 * The load-bearing property is the determinism contract: scalar and
 * avx2 must agree BIT FOR BIT with an in-test reference
 * that spells out the pinned summation order (4 stripes in i order,
 * combined (s0+s1)+(s2+s3), sequential remainder) — on every dim from
 * 1 through 17 plus the production widths, and on unaligned rows, so
 * no tier can smuggle in an alignment fast path that rounds
 * differently. Everything the batch entry points return —
 * dotBatch, dotGather, topKBatch, bestBatch — must match the
 * single-row kernel exactly, including ordering and tie-break rules.
 *
 * The split-row entry points (bestSplit, topKSplit: a bf16 filter
 * over the hi plane, then an exact re-score) must return exactly what
 * the double scan of the rebuilt rows returns, under every tier, on
 * rows built to defeat a filter: near-ties hidden in the lo bits,
 * score gaps far below the margin, duplicates, zero, non-unit and
 * subnormal rows, every small count and dim. The filter scores — and
 * so the rows re-scored — must be identical across tiers, and within
 * the margin's half of the double score.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/kernels.hh"
#include "src/common/rng.hh"
#include "src/common/row_store.hh"
#include "src/common/vec.hh"

namespace modm::kernels {
namespace {

/** Restore the auto-selected tier when a test forced another one. */
class ScopedTier
{
  public:
    ScopedTier() : saved_(active().tier) {}
    ~ScopedTier() { setTier(saved_); }

  private:
    Tier saved_;
};

std::vector<Tier>
availableTiers()
{
    std::vector<Tier> tiers;
    for (const Tier tier : {Tier::Scalar, Tier::Avx2}) {
        if (tierAvailable(tier))
            tiers.push_back(tier);
    }
    return tiers;
}

/** The contract's summation order, spelled out independently. */
double
referenceDot(const float *a, const float *b, std::size_t n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    // The remainder starts at a precomputed index, as in modm::dot:
    // carried out of the blocked loop, gcc 12 derives a bogus trip
    // count for it when n is a known constant.
    const std::size_t blocked = n - n % 4;
    for (std::size_t i = 0; i < blocked; i += 4) {
        s0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
        s1 += static_cast<double>(a[i + 1]) *
            static_cast<double>(b[i + 1]);
        s2 += static_cast<double>(a[i + 2]) *
            static_cast<double>(b[i + 2]);
        s3 += static_cast<double>(a[i + 3]) *
            static_cast<double>(b[i + 3]);
    }
    double acc = (s0 + s1) + (s2 + s3);
    for (std::size_t i = blocked; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

const std::vector<std::size_t> &
testDims()
{
    static const std::vector<std::size_t> dims = [] {
        std::vector<std::size_t> d;
        for (std::size_t n = 1; n <= 17; ++n)
            d.push_back(n);
        d.push_back(512);
        d.push_back(513);
        return d;
    }();
    return dims;
}

TEST(Kernels, TierNamesAndAvailability)
{
    // The portable tier exists everywhere; what auto-selection picked
    // must report itself consistently.
    EXPECT_TRUE(tierAvailable(Tier::Scalar));
    const KernelInfo info = active();
    EXPECT_STREQ(info.name, tierName(info.tier));
    EXPECT_TRUE(tierAvailable(info.tier));
    EXPECT_STREQ(tierName(Tier::Scalar), "scalar");
    EXPECT_STREQ(tierName(Tier::Avx2), "avx2");

    ScopedTier guard;
    for (const Tier tier : availableTiers()) {
        EXPECT_TRUE(setTier(tier));
        EXPECT_EQ(active().tier, tier);
    }
    if (!tierAvailable(Tier::Avx2)) {
        // Forcing an unavailable tier is refused, not crashed into.
        const Tier before = active().tier;
        EXPECT_FALSE(setTier(Tier::Avx2));
        EXPECT_EQ(active().tier, before);
    }
}

TEST(Kernels, DotMatchesReferenceOnEveryDimAndOffset)
{
    ScopedTier guard;
    Rng rng(2026);
    for (const std::size_t dim : testDims()) {
        // Rows live at odd float offsets inside a shared buffer, so a
        // tier can't rely on any alignment beyond sizeof(float).
        for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                         std::size_t{3}}) {
            std::vector<float> buf(2 * (dim + offset) + 8);
            const Vec a = randomUnitVec(dim, rng);
            const Vec b = randomUnitVec(dim, rng);
            float *pa = buf.data() + offset;
            float *pb = buf.data() + dim + 2 * offset + 4;
            std::memcpy(pa, a.data(), dim * sizeof(float));
            std::memcpy(pb, b.data(), dim * sizeof(float));

            const double expected = referenceDot(pa, pb, dim);
            for (const Tier tier : availableTiers()) {
                ASSERT_TRUE(setTier(tier));
                EXPECT_EQ(dot(pa, pb, dim), expected)
                    << tierName(tier) << " dim " << dim << " offset "
                    << offset;
            }
        }
    }
}

TEST(Kernels, BatchEntryPointsMatchSingleRowDot)
{
    ScopedTier guard;
    constexpr std::size_t kDim = 513; // stride 528: pad in play
    constexpr std::size_t kRows = 71;
    Rng rng(7);
    AlignedRows<float> rows(kDim);
    rows.reserve(kRows);
    for (std::size_t r = 0; r < kRows; ++r)
        rows.pushBack(randomUnitVec(kDim, rng).data());
    const Vec query = randomUnitVec(kDim, rng);

    for (const Tier tier : availableTiers()) {
        ASSERT_TRUE(setTier(tier));
        std::vector<double> batch(kRows);
        dotBatch(query.data(), rows.data(), rows.stride(), kRows, kDim,
                 batch.data());
        std::vector<const float *> scattered(kRows);
        for (std::size_t r = 0; r < kRows; ++r)
            scattered[r] = rows.row(kRows - 1 - r); // reversed order
        std::vector<double> gathered(kRows);
        dotGather(query.data(), scattered.data(), kRows, kDim,
                  gathered.data());
        for (std::size_t r = 0; r < kRows; ++r) {
            const double single = dot(query.data(), rows.row(r), kDim);
            EXPECT_EQ(batch[r], single)
                << tierName(tier) << " dotBatch row " << r;
            EXPECT_EQ(gathered[kRows - 1 - r], single)
                << tierName(tier) << " dotGather row " << r;
        }

        // topKBatch: (score desc, slot asc) against a sorted copy of
        // the batch scores; oversized k returns every row.
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{10}, kRows, kRows + 5}) {
            const auto top = topKBatch(query.data(), rows.data(),
                                       rows.stride(), kRows, kDim, k);
            ASSERT_EQ(top.size(), std::min(k, kRows));
            for (std::size_t i = 1; i < top.size(); ++i) {
                const bool ordered =
                    top[i - 1].score > top[i].score ||
                    (top[i - 1].score == top[i].score &&
                     top[i - 1].slot < top[i].slot);
                EXPECT_TRUE(ordered) << tierName(tier) << " rank " << i;
            }
            for (const auto &scored : top)
                EXPECT_EQ(scored.score, batch[scored.slot]);
        }

        std::size_t slot = 0;
        double score = 0.0;
        ASSERT_TRUE(bestBatch(query.data(), rows.data(), rows.stride(),
                              kRows, kDim, &slot, &score));
        const auto top1 = topKBatch(query.data(), rows.data(),
                                    rows.stride(), kRows, kDim, 1);
        EXPECT_EQ(slot, top1[0].slot) << tierName(tier);
        EXPECT_EQ(score, top1[0].score) << tierName(tier);
        EXPECT_FALSE(bestBatch(query.data(), rows.data(), rows.stride(),
                               0, kDim, &slot, &score));
    }
}

TEST(Kernels, TiersAgreeBitForBitOnBatches)
{
    ScopedTier guard;
    constexpr std::size_t kDim = 512;
    constexpr std::size_t kRows = 200;
    Rng rng(31);
    AlignedRows<float> rows(kDim);
    rows.reserve(kRows);
    for (std::size_t r = 0; r < kRows; ++r)
        rows.pushBack(randomUnitVec(kDim, rng).data());
    const Vec query = randomUnitVec(kDim, rng);

    ASSERT_TRUE(setTier(Tier::Scalar));
    std::vector<double> baseline(kRows);
    dotBatch(query.data(), rows.data(), rows.stride(), kRows, kDim,
             baseline.data());

    for (const Tier tier : availableTiers()) {
        ASSERT_TRUE(setTier(tier));
        std::vector<double> scores(kRows);
        dotBatch(query.data(), rows.data(), rows.stride(), kRows, kDim,
                 scores.data());
        for (std::size_t r = 0; r < kRows; ++r) {
            EXPECT_EQ(scores[r], baseline[r])
                << tierName(tier) << " row " << r;
        }
    }
}

TEST(Kernels, BestBatchBreaksExactTiesTowardTheEarliestSlot)
{
    ScopedTier guard;
    constexpr std::size_t kDim = 64;
    Rng rng(5);
    const Vec winner = randomUnitVec(kDim, rng);
    const Vec filler = randomUnitVec(kDim, rng);
    AlignedRows<float> rows(kDim);
    // Identical best rows at slots 1 and 3: slot 1 must win in every
    // tier (strictly-greater admission).
    rows.pushBack(filler.data());
    rows.pushBack(winner.data());
    rows.pushBack(filler.data());
    rows.pushBack(winner.data());
    for (const Tier tier : availableTiers()) {
        ASSERT_TRUE(setTier(tier));
        std::size_t slot = 99;
        double score = 0.0;
        ASSERT_TRUE(bestBatch(winner.data(), rows.data(), rows.stride(),
                              rows.size(), kDim, &slot, &score));
        EXPECT_EQ(slot, std::size_t{1}) << tierName(tier);
        const auto top = topKBatch(winner.data(), rows.data(),
                                   rows.stride(), rows.size(), kDim, 2);
        ASSERT_EQ(top.size(), std::size_t{2});
        EXPECT_EQ(top[0].slot, std::size_t{1}) << tierName(tier);
        EXPECT_EQ(top[1].slot, std::size_t{3}) << tierName(tier);
    }
}

/** Rows split into hi/lo planes, plus the float rows they rebuild. */
class SplitSlab
{
  public:
    explicit SplitSlab(std::size_t n) : n_(n), hi_(n), lo_(n) {}

    void push(const float *x)
    {
        std::uint16_t *hi = hi_.append();
        std::uint16_t *lo = lo_.append();
        double sq = 0.0;
        for (std::size_t i = 0; i < n_; ++i) {
            hi[i] = highHalf(x[i]);
            lo[i] = lowHalf(x[i]);
            sq += static_cast<double>(x[i]) * static_cast<double>(x[i]);
        }
        normBound_ = std::max(normBound_, std::sqrt(sq));
        flat_.insert(flat_.end(), x, x + n_);
    }

    void push(const Vec &x) { push(x.data()); }

    std::size_t size() const { return hi_.size(); }
    const float *row(std::size_t r) const { return &flat_[r * n_]; }
    const std::uint16_t *hi() const { return hi_.data(); }
    std::size_t stride() const { return hi_.stride(); }

    /** The planes with this slab's norm bound, or a larger one. */
    SplitRows rows(double normBound = 0.0) const
    {
        SplitRows rows;
        rows.hi = hi_.data();
        rows.lo = lo_.data();
        rows.stride = hi_.stride();
        rows.count = hi_.size();
        rows.n = n_;
        rows.normBound = std::max(normBound, normBound_);
        return rows;
    }

  private:
    std::size_t n_;
    AlignedRows<std::uint16_t> hi_;
    AlignedRows<std::uint16_t> lo_;
    std::vector<float> flat_;
    double normBound_ = 0.0;
};

/** The double scan the split entry points must reproduce exactly:
 *  (score desc, slot asc) over referenceDot of the float rows. */
std::vector<Scored>
referenceTopK(const SplitSlab &slab, const float *q, std::size_t n,
              std::size_t k)
{
    std::vector<Scored> all;
    for (std::size_t r = 0; r < slab.size(); ++r)
        all.push_back({r, referenceDot(q, slab.row(r), n)});
    std::stable_sort(all.begin(), all.end(),
                     [](const Scored &a, const Scored &b) {
                         return a.score > b.score;
                     });
    all.resize(std::min(k, all.size()));
    return all;
}

/**
 * Checks bestSplit/topKSplit against the reference under every tier,
 * and that the filter scores and re-scored slots agree across tiers.
 * Returns the number of rows bestSplit re-scored.
 */
std::size_t
expectSplitScansExact(const SplitSlab &slab, const Vec &q, std::size_t n,
                      double normBound = 0.0)
{
    const SplitRows rows = slab.rows(normBound);
    const std::size_t count = slab.size();
    std::vector<float> filterBase;
    std::vector<std::size_t> bestBase;
    std::vector<std::size_t> topBase;
    bool first = true;
    for (const Tier tier : availableTiers()) {
        EXPECT_TRUE(setTier(tier));
        const std::string where = std::string(tierName(tier)) + " n " +
            std::to_string(n) + " count " + std::to_string(count);

        std::vector<float> filter(count);
        filterBatch(q.data(), slab.hi(), slab.stride(), count, n,
                    filter.data());
        const double margin = filterMargin(q.data(), n, rows.normBound);
        for (std::size_t r = 0; r < count && std::isfinite(margin); ++r) {
            const double exact = referenceDot(q.data(), slab.row(r), n);
            EXPECT_LE(std::fabs(filter[r] - exact), margin / 2)
                << where << " row " << r;
        }

        std::vector<std::size_t> bestRescored;
        std::size_t slot = 0;
        double score = 0.0;
        const bool found =
            bestSplit(q.data(), rows, &slot, &score, &bestRescored);
        EXPECT_EQ(found, count > 0) << where;
        const auto ref1 = referenceTopK(slab, q.data(), n, 1);
        if (found && !ref1.empty()) {
            EXPECT_EQ(slot, ref1[0].slot) << where;
            EXPECT_EQ(score, ref1[0].score) << where;
        }

        std::vector<std::size_t> topRescored;
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{3}, std::size_t{10}, count,
              count + 2}) {
            std::vector<std::size_t> *hook = k == 3 ? &topRescored : nullptr;
            const auto top = topKSplit(q.data(), rows, k, hook);
            const auto ref = referenceTopK(slab, q.data(), n, k);
            EXPECT_EQ(top.size(), ref.size()) << where << " k " << k;
            for (std::size_t i = 0; i < std::min(top.size(), ref.size());
                 ++i) {
                EXPECT_EQ(top[i].slot, ref[i].slot)
                    << where << " k " << k << " rank " << i;
                EXPECT_EQ(top[i].score, ref[i].score)
                    << where << " k " << k << " rank " << i;
            }
        }

        if (first) {
            filterBase = filter;
            bestBase = bestRescored;
            topBase = topRescored;
            first = false;
        } else {
            for (std::size_t r = 0; r < count; ++r) {
                EXPECT_EQ(std::memcmp(&filter[r], &filterBase[r],
                                      sizeof(float)),
                          0)
                    << where << " filter row " << r;
            }
            EXPECT_EQ(bestRescored, bestBase) << where;
            EXPECT_EQ(topRescored, topBase) << where;
        }
    }
    return bestBase.size();
}

Vec
scaled(Vec v, float s)
{
    for (float &x : v)
        x *= s;
    return v;
}

TEST(SplitRows, HalvesRebuildEveryFloatExactly)
{
    Rng rng(17);
    std::vector<float> probes = {0.0f,
                                 -0.0f,
                                 1.0f,
                                 -1.5f,
                                 std::numeric_limits<float>::min(),
                                 std::numeric_limits<float>::denorm_min(),
                                 -3e-40f,
                                 std::numeric_limits<float>::max()};
    for (int i = 0; i < 1000; ++i)
        probes.push_back(static_cast<float>(rng.normal() * 10.0));
    for (const float x : probes) {
        const float back = joinHalves(highHalf(x), lowHalf(x));
        EXPECT_EQ(std::memcmp(&back, &x, sizeof x), 0) << x;
        // hi alone is x truncated toward zero to 8 significant bits.
        const float hi = joinHalves(highHalf(x), 0);
        EXPECT_LE(std::fabs(hi), std::fabs(x));
        EXPECT_LE(std::fabs(x - hi), std::ldexp(std::fabs(x), -7) + 0x1p-133f);
    }
}

TEST(SplitRows, ExactOnEveryDimAndSmallCount)
{
    ScopedTier guard;
    Rng rng(404);
    std::vector<std::size_t> dims = testDims();
    dims.push_back(64);
    for (const std::size_t n : dims) {
        for (const std::size_t count :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{9}, std::size_t{255}, std::size_t{256},
              std::size_t{257}}) {
            SplitSlab slab(n);
            for (std::size_t r = 0; r < count; ++r)
                slab.push(randomUnitVec(n, rng));
            const Vec q = randomUnitVec(n, rng);
            expectSplitScansExact(slab, q, n);
        }
    }
}

TEST(SplitRows, ExactOnAdversarialRows)
{
    ScopedTier guard;
    for (const std::size_t n : {std::size_t{5}, std::size_t{16},
                                std::size_t{64}, std::size_t{513}}) {
        Rng rng(n);
        const Vec base = randomUnitVec(n, rng);
        const Vec other = randomUnitVec(n, rng);
        SplitSlab slab(n);
        for (std::size_t r = 0; r < 300; ++r) {
            Vec row = base;
            switch (r % 6) {
            case 0: {
                // Same hi plane as `base`, different lo bits: identical
                // filter scores, distinct exact scores.
                for (float &x : row) {
                    const auto lo = static_cast<std::uint16_t>(rng.next());
                    x = joinHalves(highHalf(x), lo);
                }
                break;
            }
            case 1: {
                // A score gap far below the margin.
                const float eps = static_cast<float>(1e-6 * rng.uniform());
                for (std::size_t i = 0; i < n; ++i)
                    row[i] += eps * other[i];
                break;
            }
            case 2:
                break; // exact duplicate of `base`: earliest slot wins
            case 3:
                row.assign(n, 0.0f); // zero row
                break;
            case 4:
                row = scaled(base, static_cast<float>(0.5 + rng.uniform()));
                break;
            case 5:
                // Subnormal components next to normal ones.
                for (std::size_t i = 0; i < n; i += 2)
                    row[i] = static_cast<float>(rng.uniform() * 1e-39);
                break;
            }
            slab.push(row);
        }
        expectSplitScansExact(slab, base, n);
        // A stale, larger norm bound (FlatIndex never lowers it on
        // remove) only widens the margin.
        expectSplitScansExact(slab, base, n, 4.0);
        // Non-unit and subnormal queries.
        expectSplitScansExact(slab, scaled(base, 3.0f), n);
        expectSplitScansExact(slab, scaled(base, 1e-38f), n);
    }
}

TEST(SplitRows, AllZeroRowsTieToTheFirstSlot)
{
    ScopedTier guard;
    constexpr std::size_t kDim = 64;
    Rng rng(8);
    SplitSlab slab(kDim);
    for (std::size_t r = 0; r < 20; ++r)
        slab.push(Vec(kDim, 0.0f));
    const Vec q = randomUnitVec(kDim, rng);
    expectSplitScansExact(slab, q, kDim);
    std::size_t slot = 99;
    double score = 1.0;
    ASSERT_TRUE(bestSplit(q.data(), slab.rows(), &slot, &score));
    EXPECT_EQ(slot, std::size_t{0});
    EXPECT_EQ(score, 0.0);
}

TEST(SplitRows, HugeRowsSkipTheFilterAndStayExact)
{
    ScopedTier guard;
    constexpr std::size_t kDim = 64;
    Rng rng(9);
    SplitSlab slab(kDim);
    for (std::size_t r = 0; r < 40; ++r)
        slab.push(scaled(randomUnitVec(kDim, rng), 1e30f));
    const Vec q = randomUnitVec(kDim, rng);
    // Past |q| * R = 2^100 (~1.3e30) float partial sums could
    // overflow: no filter margin exists and every row is re-scored.
    EXPECT_TRUE(std::isinf(filterMargin(q.data(), kDim, 1e31)));
    const Vec query = scaled(q, 1e10f);
    EXPECT_EQ(expectSplitScansExact(slab, query, kDim), slab.size());
}

TEST(SplitRows, FilterRescoresFewRandomRows)
{
    // The point of the filter: at the serving shape (64-dim unit rows)
    // almost every row is ruled out without its lo plane.
    ScopedTier guard;
    constexpr std::size_t kDim = 64;
    Rng rng(10);
    SplitSlab slab(kDim);
    for (std::size_t r = 0; r < 4000; ++r)
        slab.push(randomUnitVec(kDim, rng));
    const Vec q = randomUnitVec(kDim, rng);
    const std::size_t rescored = expectSplitScansExact(slab, q, kDim);
    EXPECT_GE(rescored, std::size_t{1});
    EXPECT_LT(rescored, slab.size() / 20);
}

} // namespace
} // namespace modm::kernels

namespace modm {
namespace {

TEST(AlignedRows, StrideRoundsUpToWholeCacheLines)
{
    EXPECT_EQ(alignedRowStride<std::uint16_t>(1), std::size_t{32});
    EXPECT_EQ(alignedRowStride<std::uint16_t>(64), std::size_t{64});
    EXPECT_EQ(alignedRowStride<std::uint16_t>(513), std::size_t{544});
    EXPECT_EQ(alignedRowStride(1), std::size_t{16});
    EXPECT_EQ(alignedRowStride(16), std::size_t{16});
    EXPECT_EQ(alignedRowStride(17), std::size_t{32});
    EXPECT_EQ(alignedRowStride(64), std::size_t{64});
    EXPECT_EQ(alignedRowStride(512), std::size_t{512});
    EXPECT_EQ(alignedRowStride(513), std::size_t{528});
}

TEST(AlignedRows, PushBackSwapRemoveAndAlignment)
{
    constexpr std::size_t kDim = 5; // stride 16: pad floats in play
    AlignedRows<float> rows(kDim);
    EXPECT_TRUE(rows.empty());
    EXPECT_EQ(rows.stride(), std::size_t{16});

    const float a[kDim] = {1, 2, 3, 4, 5};
    const float b[kDim] = {6, 7, 8, 9, 10};
    const float c[kDim] = {11, 12, 13, 14, 15};
    EXPECT_EQ(rows.pushBack(a), std::size_t{0});
    EXPECT_EQ(rows.pushBack(b), std::size_t{1});
    EXPECT_EQ(rows.pushBack(c), std::size_t{2});
    EXPECT_EQ(rows.size(), std::size_t{3});
    EXPECT_EQ(rows.memoryBytes(), 3 * 16 * sizeof(float));

    for (std::size_t slot = 0; slot < rows.size(); ++slot) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rows.row(slot)) % 64,
                  std::uintptr_t{0})
            << "slot " << slot;
        // Pad floats are zeroed so full-stride reads are harmless.
        for (std::size_t i = kDim; i < rows.stride(); ++i)
            EXPECT_EQ(rows.row(slot)[i], 0.0f);
    }
    EXPECT_EQ(rows.row(1)[0], 6.0f);

    // swapRemove moves the last row into the hole.
    rows.swapRemove(0);
    ASSERT_EQ(rows.size(), std::size_t{2});
    EXPECT_EQ(rows.row(0)[0], 11.0f);
    EXPECT_EQ(rows.row(1)[4], 10.0f);
    rows.swapRemove(1); // removing the last row moves nothing
    ASSERT_EQ(rows.size(), std::size_t{1});
    EXPECT_EQ(rows.row(0)[0], 11.0f);

    // Growth across reallocations preserves contents.
    AlignedRows<float> grown(kDim);
    for (std::size_t i = 0; i < 5000; ++i) {
        const float v = static_cast<float>(i);
        const float row[kDim] = {v, v, v, v, v};
        grown.pushBack(row);
    }
    for (std::size_t i = 0; i < 5000; ++i)
        ASSERT_EQ(grown.row(i)[3], static_cast<float>(i));
}

TEST(RowStore, StablePointersAndLifoFreelist)
{
    constexpr std::size_t kDim = 64;
    RowStore store(kDim, /*rowsPerChunk=*/8);
    Rng rng(3);
    const Vec first = randomUnitVec(kDim, rng);
    const RowStore::Slot s0 = store.insert(first.data());
    const float *p0 = store.row(s0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p0) % 64,
              std::uintptr_t{0});

    // Grow far past the first chunk: the old pointer must not move
    // (chunks are appended, never reallocated).
    std::vector<RowStore::Slot> slots;
    for (std::size_t i = 0; i < 100; ++i)
        slots.push_back(store.insert(randomUnitVec(kDim, rng).data()));
    EXPECT_EQ(store.row(s0), p0);
    EXPECT_EQ(store.liveRows(), std::size_t{101});
    EXPECT_EQ(store.memoryBytes(), 101 * store.stride() * sizeof(float));
    for (std::size_t i = 0; i < kDim; ++i)
        EXPECT_EQ(p0[i], first[i]);

    // Released slots come back LIFO, reusing the warm lines.
    store.release(slots[10]);
    store.release(slots[20]);
    EXPECT_EQ(store.liveRows(), std::size_t{99});
    const RowStore::Slot r1 = store.insert(first.data());
    const RowStore::Slot r2 = store.insert(first.data());
    EXPECT_EQ(r1, slots[20]);
    EXPECT_EQ(r2, slots[10]);

    store.clear();
    EXPECT_EQ(store.liveRows(), std::size_t{0});
    EXPECT_EQ(store.memoryBytes(), std::size_t{0});
}

} // namespace
} // namespace modm
