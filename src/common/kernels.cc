#include "src/common/kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#define MODM_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace modm::kernels {
namespace {

// ---------------------------------------------------------------------
// Scalar tier: the 4-stripe accumulation written as the naive nested
// loop. Stripe j collects elements i % 4 == j in i order — the exact
// sums (and roundings) of the avx2 tier, so this is the reference the
// CI kernels job diffs against.
// ---------------------------------------------------------------------

double
dotScalar(const float *a, const float *b, std::size_t n)
{
    double stripe[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        for (std::size_t j = 0; j < 4; ++j) {
            stripe[j] += static_cast<double>(a[i + j]) *
                static_cast<double>(b[i + j]);
        }
    }
    double acc = (stripe[0] + stripe[1]) + (stripe[2] + stripe[3]);
    for (; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

void
dot8Scalar(const float *q, const float *rows, std::size_t stride,
           const float *next, std::size_t n, double *out)
{
    (void)next;
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotScalar(q, rows + r * stride, n);
}

void
gather8Scalar(const float *q, const float *const *rows, std::size_t n,
              double *out)
{
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotScalar(q, rows[r], n);
}

/** A bf16 value widened to the float it truncates to. */
inline float
bf16ToFloat(std::uint16_t hi)
{
    return joinHalves(hi, 0);
}

/**
 * The filter's pinned order, one row: lane k takes elements i with
 * (i % 16) / 2 == k in i order by fused multiply-add — exactly what
 * one vfmadd231ps lane computes — then the ((l0+l1)+(l2+l3)) +
 * ((l4+l5)+(l6+l7)) reduction and a sequential fma remainder. So
 * every tier's filter score equals this one.
 */
inline __attribute__((always_inline)) float
filterRowBody(const float *q, const std::uint16_t *hi, std::size_t n)
{
    float lane[8] = {};
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
#pragma GCC unroll 16
        for (std::size_t j = 0; j < 16; ++j) {
            lane[j / 2] =
                std::fma(q[i + j], bf16ToFloat(hi[i + j]), lane[j / 2]);
        }
    }
    float acc = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
        ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for (; i < n; ++i)
        acc = std::fma(q[i], bf16ToFloat(hi[i]), acc);
    return acc;
}

#ifdef MODM_KERNELS_X86
/** filterRowBody with std::fma as one scalar instruction. */
__attribute__((target("fma"))) float
filterRowHw(const float *q, const std::uint16_t *hi, std::size_t n)
{
    return filterRowBody(q, hi, n);
}
#endif

/**
 * One row of the pinned filter, scalar code. std::fma is correctly
 * rounded everywhere, but without FMA in the baseline ISA it is a libm
 * call per element (5x slower than the double scan this replaces), so
 * CPUs that have the instruction get the same loop compiled to it.
 * Also scores the tail rows of every tier's batch.
 */
float
filterRow(const float *q, const std::uint16_t *hi, std::size_t n)
{
#ifdef MODM_KERNELS_X86
    static const bool hwFma = __builtin_cpu_supports("fma");
    if (hwFma)
        return filterRowHw(q, hi, n);
#endif
    return filterRowBody(q, hi, n);
}

/** Bit r set when out[r] >= floor (the rows a scan must look at). */
unsigned
atLeast(const float *out, std::size_t count, float floor)
{
    unsigned mask = 0;
    for (std::size_t r = 0; r < count; ++r)
        mask |= static_cast<unsigned>(out[r] >= floor) << r;
    return mask;
}

unsigned
filter8Scalar(const float *q, const std::uint16_t *hi, std::size_t stride,
              const std::uint16_t *next, std::size_t n, float floor,
              float *out)
{
    (void)next;
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = filterRow(q, hi + r * stride, n);
    return atLeast(out, 8, floor);
}

/** dotScalar of the row rebuilt from its halves. */
double
dotSplitScalar(const float *q, const std::uint16_t *hi,
               const std::uint16_t *lo, std::size_t n)
{
    double stripe[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        for (std::size_t j = 0; j < 4; ++j) {
            stripe[j] += static_cast<double>(q[i + j]) *
                static_cast<double>(joinHalves(hi[i + j], lo[i + j]));
        }
    }
    double acc = (stripe[0] + stripe[1]) + (stripe[2] + stripe[3]);
    for (; i < n; ++i) {
        acc += static_cast<double>(q[i]) *
            static_cast<double>(joinHalves(hi[i], lo[i]));
    }
    return acc;
}

#ifdef MODM_KERNELS_X86

// ---------------------------------------------------------------------
// AVX2 tier. Each __m256d accumulator IS the four stripes: lane j of
// `_mm256_fmadd_pd(cvtps_pd(row), cvtps_pd(query), acc)` performs
// stripe j's `acc += (double)a * (double)b` with a single rounding
// (the float product is exact in double), so sums stay bit-identical
// to the scalar tier. The speed comes from the 8-row block — the
// query converts once per 4 elements instead of once per row — and
// from prefetching the next block: a 1M x 512 scan streams 2 GB and
// is bandwidth-bound, so hiding the miss latency beats widening the
// ALUs (measured 2.3x over a 4-way unrolled scalar loop there).
//
// Every kernel ends with vzeroupper. Optimized builds insert it anyway;
// at -O0 gcc does not, and the dirty upper halves then slow every
// later SSE instruction of the program (a Debug run of the retrieval
// suite that switched tiers once took 16x longer).
// ---------------------------------------------------------------------

__attribute__((target("avx2,fma"))) double
dotAvx2(const float *a, const float *b, std::size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
        const __m256d vb = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
        acc = _mm256_fmadd_pd(va, vb, acc);
    }
    alignas(32) double l[4];
    _mm256_store_pd(l, acc);
    _mm256_zeroupper();
    double out = (l[0] + l[1]) + (l[2] + l[3]);
    for (; i < n; ++i)
        out += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return out;
}

__attribute__((target("avx2,fma"))) void
dot8Avx2(const float *q, const float *rows, std::size_t stride,
         const float *next, std::size_t n, double *out)
{
    __m256d a[8];
    for (int r = 0; r < 8; ++r)
        a[r] = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vq = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
        // Walk the next block at 2x the consumption rate so its lines
        // arrive before the current block's arithmetic runs out.
        if (next) {
            _mm_prefetch(reinterpret_cast<const char *>(next + i * 8),
                         _MM_HINT_T0);
        }
        for (int r = 0; r < 8; ++r) {
            a[r] = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm_loadu_ps(rows + r * stride + i)), vq,
                a[r]);
        }
    }
    for (int r = 0; r < 8; ++r) {
        alignas(32) double l[4];
        _mm256_store_pd(l, a[r]);
        double acc = (l[0] + l[1]) + (l[2] + l[3]);
        for (std::size_t j = i; j < n; ++j) {
            acc += static_cast<double>(q[j]) *
                static_cast<double>(rows[r * stride + j]);
        }
        out[r] = acc;
    }
    _mm256_zeroupper();
}

__attribute__((target("avx2,fma"))) void
gather8Avx2(const float *q, const float *const *rows, std::size_t n,
            double *out)
{
    __m256d a[8];
    for (int r = 0; r < 8; ++r)
        a[r] = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vq = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
        for (int r = 0; r < 8; ++r) {
            a[r] = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm_loadu_ps(rows[r] + i)), vq, a[r]);
        }
    }
    for (int r = 0; r < 8; ++r) {
        alignas(32) double l[4];
        _mm256_store_pd(l, a[r]);
        double acc = (l[0] + l[1]) + (l[2] + l[3]);
        for (std::size_t j = i; j < n; ++j) {
            acc += static_cast<double>(q[j]) *
                static_cast<double>(rows[r][j]);
        }
        out[r] = acc;
    }
    _mm256_zeroupper();
}

// The split-row filter. One 32-byte load holds 16 hi halves: 32-bit
// lane k is hi[2k] | hi[2k+1] << 16, so `lane << 16` is element 2k as
// a float and `lane & 0xffff0000` is element 2k+1 — two integer ops
// widen 16 bf16 values (one fewer per 8 than vpmovzxwd + vpslld, and
// no F16C). The query is split into matching even/odd vectors once per
// 16 elements and shared by the block's 8 rows. Lane k thus
// accumulates elements i with (i % 16) / 2 == k in i order —
// filterRow's order. Returns the rows scoring >= floor as a bit mask,
// so a scan skips the common all-below block without touching scores.
__attribute__((target("avx2,fma"))) unsigned
filter8Avx2(const float *q, const std::uint16_t *hi, std::size_t stride,
            const std::uint16_t *next, std::size_t n, float floor,
            float *out)
{
    __m256 a[8];
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r)
        a[r] = _mm256_setzero_ps();
    const __m256i oddMask = _mm256_set1_epi32(
        static_cast<int>(0xffff0000u));
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256 q0 = _mm256_loadu_ps(q + i);
        const __m256 q1 = _mm256_loadu_ps(q + i + 8);
        // shuffle_ps picks (0,2,8,10 | 4,6,12,14); the 64-bit permute
        // restores 0,2,...,14 (and 1,3,...,15 for the odd half).
        const __m256 qe = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(_mm256_shuffle_ps(q0, q1, 0x88)), 0xd8));
        const __m256 qo = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(_mm256_shuffle_ps(q0, q1, 0xdd)), 0xd8));
        if (next) {
            // Four lines of the next block per 16 elements: the whole
            // block by the time this one is scored.
            const char *p = reinterpret_cast<const char *>(next) + i * 16;
            for (int l = 0; l < 4; ++l)
                _mm_prefetch(p + l * 64, _MM_HINT_T0);
        }
#pragma GCC unroll 8
        for (int r = 0; r < 8; ++r) {
            const __m256i w = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(hi + r * stride + i));
            a[r] = _mm256_fmadd_ps(
                _mm256_castsi256_ps(_mm256_slli_epi32(w, 16)), qe, a[r]);
            a[r] = _mm256_fmadd_ps(
                _mm256_castsi256_ps(_mm256_and_si256(w, oddMask)), qo,
                a[r]);
        }
    }
    // Transpose-reduce: row r's sum lands in lane r as
    // ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
    const __m256 t0 = _mm256_hadd_ps(a[0], a[1]);
    const __m256 t1 = _mm256_hadd_ps(a[2], a[3]);
    const __m256 t2 = _mm256_hadd_ps(a[4], a[5]);
    const __m256 t3 = _mm256_hadd_ps(a[6], a[7]);
    const __m256 u0 = _mm256_hadd_ps(t0, t1);
    const __m256 u1 = _mm256_hadd_ps(t2, t3);
    __m256 sum = _mm256_add_ps(_mm256_permute2f128_ps(u0, u1, 0x20),
                               _mm256_permute2f128_ps(u0, u1, 0x31));
    if (i < n) {
        _mm256_storeu_ps(out, sum);
        for (int r = 0; r < 8; ++r) {
            for (std::size_t j = i; j < n; ++j) {
                out[r] = std::fma(q[j], bf16ToFloat(hi[r * stride + j]),
                                  out[r]);
            }
        }
        sum = _mm256_loadu_ps(out);
    }
    _mm256_storeu_ps(out, sum);
    const auto mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(sum, _mm256_set1_ps(floor), _CMP_GE_OQ)));
    _mm256_zeroupper();
    return mask;
}

/** dotAvx2 of the row rebuilt from its halves, 4 elements at a time:
 *  unpacking lo below hi interleaves each pair into its float. */
__attribute__((target("avx2,fma"))) double
dotSplitAvx2(const float *q, const std::uint16_t *hi,
             const std::uint16_t *lo, std::size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i h =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(hi + i));
        const __m128i l =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(lo + i));
        const __m256d x =
            _mm256_cvtps_pd(_mm_castsi128_ps(_mm_unpacklo_epi16(l, h)));
        acc = _mm256_fmadd_pd(x, _mm256_cvtps_pd(_mm_loadu_ps(q + i)), acc);
    }
    alignas(32) double l[4];
    _mm256_store_pd(l, acc);
    _mm256_zeroupper();
    double out = (l[0] + l[1]) + (l[2] + l[3]);
    for (; i < n; ++i) {
        out += static_cast<double>(q[i]) *
            static_cast<double>(joinHalves(hi[i], lo[i]));
    }
    return out;
}

#endif // MODM_KERNELS_X86

// ---------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------

struct Ops
{
    double (*dot1)(const float *, const float *, std::size_t);
    void (*dot8)(const float *, const float *, std::size_t,
                 const float *, std::size_t, double *);
    void (*gather8)(const float *, const float *const *, std::size_t,
                    double *);
    unsigned (*filter8)(const float *, const std::uint16_t *, std::size_t,
                        const std::uint16_t *, std::size_t, float,
                        float *);
    double (*dotSplit)(const float *, const std::uint16_t *,
                       const std::uint16_t *, std::size_t);
};

const Ops &
opsFor(Tier tier)
{
    static const Ops scalar{dotScalar, dot8Scalar, gather8Scalar,
                            filter8Scalar, dotSplitScalar};
#ifdef MODM_KERNELS_X86
    static const Ops avx2{dotAvx2, dot8Avx2, gather8Avx2, filter8Avx2,
                          dotSplitAvx2};
    if (tier == Tier::Avx2)
        return avx2;
#else
    (void)tier;
#endif
    return scalar;
}

struct State
{
    Tier tier = Tier::Scalar;
    bool fromEnv = false;
};

Tier
autoTier()
{
    return tierAvailable(Tier::Avx2) ? Tier::Avx2 : Tier::Scalar;
}

State
initState()
{
    State s;
    s.tier = autoTier();
    if (const char *env = std::getenv("MODM_KERNEL")) {
        bool known = false;
        for (const Tier t : {Tier::Scalar, Tier::Avx2}) {
            if (std::strcmp(env, tierName(t)) != 0)
                continue;
            known = true;
            if (tierAvailable(t)) {
                s.tier = t;
                s.fromEnv = true;
            } else {
                std::fprintf(stderr,
                             "[kernels] MODM_KERNEL=%s unavailable on "
                             "this build/CPU; using %s\n",
                             env, tierName(s.tier));
            }
            break;
        }
        if (!known) {
            std::fprintf(stderr,
                         "[kernels] unknown MODM_KERNEL=%s; using %s\n",
                         env, tierName(s.tier));
        }
    }
    return s;
}

State &
state()
{
    static State s = initState();
    return s;
}

/** Rows per scoring block in topKBatch/bestBatch. */
constexpr std::size_t kScoreBlock = 256;

/**
 * The largest float <= F - margin (the double subtraction is covered
 * by the slack filterMargin adds): a row whose filter score falls
 * below it cannot be the answer.
 */
float
filterFloor(float top, double margin)
{
    const double floor = static_cast<double>(top) - margin;
    float out = static_cast<float>(floor);
    if (static_cast<double>(out) > floor)
        out = std::nextafter(out, -std::numeric_limits<float>::infinity());
    return out;
}

/** (score desc, slot asc): the FlatIndex ordering contract. */
bool
better(const Scored &x, const Scored &y)
{
    if (x.score != y.score)
        return x.score > y.score;
    return x.slot < y.slot;
}

/** Offer one scored slot to a size-k heap of the best candidates. */
void
offer(std::vector<Scored> &heap, std::size_t k, const Scored &cand)
{
    if (heap.size() < k) {
        heap.push_back(cand);
        std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(cand, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = cand;
        std::push_heap(heap.begin(), heap.end(), better);
    }
}

} // namespace

const char *
tierName(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return "scalar";
    case Tier::Avx2:
        return "avx2";
    }
    return "scalar";
}

bool
tierAvailable(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return true;
    case Tier::Avx2:
#ifdef MODM_KERNELS_X86
        return __builtin_cpu_supports("avx2") &&
            __builtin_cpu_supports("fma");
#else
        return false;
#endif
    }
    return false;
}

KernelInfo
active()
{
    const State &s = state();
    return {s.tier, tierName(s.tier), s.fromEnv};
}

bool
setTier(Tier tier)
{
    if (!tierAvailable(tier))
        return false;
    state().tier = tier;
    return true;
}

double
dot(const float *a, const float *b, std::size_t n)
{
    return opsFor(state().tier).dot1(a, b, n);
}

void
dotBatch(const float *query, const float *rows, std::size_t stride,
         std::size_t count, std::size_t n, double *out)
{
    const Ops &ops = opsFor(state().tier);
    std::size_t r = 0;
    for (; r + 8 <= count; r += 8) {
        const float *next =
            r + 16 <= count ? rows + (r + 8) * stride : nullptr;
        ops.dot8(query, rows + r * stride, stride, next, n, out + r);
    }
    for (; r < count; ++r)
        out[r] = ops.dot1(query, rows + r * stride, n);
}

void
dotGather(const float *query, const float *const *rows,
          std::size_t count, std::size_t n, double *out)
{
    const Ops &ops = opsFor(state().tier);
    // Touch every line of the following block's rows before scoring
    // the current one; scattered candidates (HNSW expansion) get the
    // same latency hiding the contiguous path gets from dot8.
    const std::size_t lines = (n * sizeof(float) + 63) / 64;
    std::size_t r = 0;
    for (; r + 8 <= count; r += 8) {
        if (r + 16 <= count) {
            for (std::size_t p = 0; p < 8; ++p) {
                const float *row = rows[r + 8 + p];
                for (std::size_t l = 0; l < lines; ++l)
                    __builtin_prefetch(row + l * 16);
            }
        }
        ops.gather8(query, rows + r, n, out + r);
    }
    for (; r < count; ++r)
        out[r] = ops.dot1(query, rows[r], n);
}

std::vector<Scored>
topKBatch(const float *query, const float *rows, std::size_t stride,
          std::size_t count, std::size_t n, std::size_t k)
{
    std::vector<Scored> heap;
    if (k == 0)
        return heap;
    heap.reserve(std::min(k, count));
    double scores[kScoreBlock];
    for (std::size_t base = 0; base < count; base += kScoreBlock) {
        const std::size_t len = std::min(kScoreBlock, count - base);
        dotBatch(query, rows + base * stride, stride, len, n, scores);
        for (std::size_t i = 0; i < len; ++i)
            offer(heap, k, {base + i, scores[i]});
    }
    std::sort(heap.begin(), heap.end(), better);
    return heap;
}

bool
bestBatch(const float *query, const float *rows, std::size_t stride,
          std::size_t count, std::size_t n, std::size_t *slot,
          double *score)
{
    if (count == 0)
        return false;
    double bestScore = 0.0;
    std::size_t bestSlot = 0;
    bool any = false;
    double scores[kScoreBlock];
    for (std::size_t base = 0; base < count; base += kScoreBlock) {
        const std::size_t len = std::min(kScoreBlock, count - base);
        dotBatch(query, rows + base * stride, stride, len, n, scores);
        for (std::size_t i = 0; i < len; ++i) {
            // Strictly greater: earliest slot wins ties.
            if (!any || scores[i] > bestScore) {
                any = true;
                bestScore = scores[i];
                bestSlot = base + i;
            }
        }
    }
    *slot = bestSlot;
    *score = bestScore;
    return true;
}

void
filterBatch(const float *query, const std::uint16_t *hi, std::size_t stride,
            std::size_t count, std::size_t n, float *out)
{
    const Ops &ops = opsFor(state().tier);
    constexpr float kAll = -std::numeric_limits<float>::infinity();
    std::size_t r = 0;
    for (; r + 8 <= count; r += 8) {
        const std::uint16_t *next =
            r + 16 <= count ? hi + (r + 8) * stride : nullptr;
        ops.filter8(query, hi + r * stride, stride, next, n, kAll, out + r);
    }
    for (; r < count; ++r)
        out[r] = filterRow(query, hi + r * stride, n);
}

double
filterMargin(const float *query, std::size_t n, double normBound)
{
    constexpr double kSkip = std::numeric_limits<double>::infinity();
    double sq = 0.0;
    double l1 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = query[i];
        sq += x * x;
        l1 += std::fabs(x);
    }
    const double scale = std::sqrt(sq) * normBound;
    const double nd = static_cast<double>(n);
    // `!(a <= b)` also catches NaN. Past 2^100 a float32 partial sum
    // could overflow; past n * 2^-24 = 1/2 the bound is vacuous.
    if (!(scale <= 0x1p100) || !(l1 <= 0x1p100) || nd * 0x1p-24 >= 0.5)
        return kSkip;
    const auto gamma = [nd](double u) { return nd * u / (1.0 - nd * u); };
    const double e = (0x1p-7 + gamma(0x1p-24) + gamma(0x1p-53)) * scale +
        0x1p-133 * l1 + nd * 0x1p-146;
    // The slack covers the double rounding of |q|, R, this formula and
    // the caller's F - M (each a few ulps, i.e. ~2^-50 relative).
    return 2.0 * e * (1.0 + 0x1p-20);
}

bool
bestSplit(const float *query, const SplitRows &rows, std::size_t *slot,
          double *score, std::vector<std::size_t> *rescored)
{
    if (rows.count == 0)
        return false;
    const Ops &ops = opsFor(state().tier);
    const double margin = filterMargin(query, rows.n, rows.normBound);
    const bool filter = std::isfinite(margin);
    // F is the running maximum of the filter scores: it only grows, so
    // `floor` only rises, and a row below the floor of its moment is
    // below the final one too — skipping it never loses the answer.
    float top = -std::numeric_limits<float>::infinity();
    float floor = top;
    double bestScore = 0.0;
    std::size_t bestSlot = 0;
    bool any = false;
    float f[8];
    for (std::size_t base = 0; base < rows.count; base += 8) {
        const std::size_t len = std::min<std::size_t>(8, rows.count - base);
        const std::uint16_t *hi = rows.hi + base * rows.stride;
        unsigned mask = (1u << len) - 1;
        if (filter && len == 8) {
            const std::uint16_t *next = base + 16 <= rows.count
                ? hi + 8 * rows.stride
                : nullptr;
            mask = ops.filter8(query, hi, rows.stride, next, rows.n, floor,
                               f);
        } else if (filter) {
            for (std::size_t i = 0; i < len; ++i)
                f[i] = filterRow(query, hi + i * rows.stride, rows.n);
            mask = atLeast(f, len, floor);
        }
        for (; mask != 0; mask &= mask - 1) {
            const unsigned i = static_cast<unsigned>(__builtin_ctz(mask));
            if (filter) {
                if (f[i] > top) {
                    top = f[i];
                    floor = filterFloor(top, margin);
                }
                if (f[i] < floor)
                    continue;
            }
            const std::size_t r = base + i;
            if (rescored)
                rescored->push_back(r);
            const double s =
                ops.dotSplit(query, rows.hi + r * rows.stride,
                             rows.lo + r * rows.stride, rows.n);
            // Strictly greater in slot order: earliest slot wins ties.
            if (!any || s > bestScore) {
                any = true;
                bestScore = s;
                bestSlot = r;
            }
        }
    }
    *slot = bestSlot;
    *score = bestScore;
    return true;
}

std::vector<Scored>
topKSplit(const float *query, const SplitRows &rows, std::size_t k,
          std::vector<std::size_t> *rescored)
{
    std::vector<Scored> heap;
    if (k == 0 || rows.count == 0)
        return heap;
    const Ops &ops = opsFor(state().tier);
    const double margin = filterMargin(query, rows.n, rows.normBound);
    // With k >= count every row is in the answer: nothing to filter.
    const bool filter = std::isfinite(margin) && k < rows.count;
    std::vector<float> f;
    float floor = 0.0f;
    if (filter) {
        f.resize(rows.count);
        filterBatch(query, rows.hi, rows.stride, rows.count, rows.n,
                    f.data());
        std::vector<float> kth(f);
        std::nth_element(kth.begin(), kth.begin() + (k - 1), kth.end(),
                         std::greater<float>());
        floor = filterFloor(kth[k - 1], margin);
    }
    heap.reserve(std::min(k, rows.count));
    for (std::size_t r = 0; r < rows.count; ++r) {
        if (filter && f[r] < floor)
            continue;
        if (rescored)
            rescored->push_back(r);
        offer(heap, k,
              {r, ops.dotSplit(query, rows.hi + r * rows.stride,
                               rows.lo + r * rows.stride, rows.n)});
    }
    std::sort(heap.begin(), heap.end(), better);
    return heap;
}

} // namespace modm::kernels
