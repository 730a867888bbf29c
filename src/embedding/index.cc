#include "src/embedding/index.hh"

#include <algorithm>
#include <cmath>

#include "src/common/kernels.hh"
#include "src/common/log.hh"

namespace modm::embedding {

FlatIndex::FlatIndex(std::size_t dim)
    : dim_(dim)
{
    MODM_ASSERT(dim_ > 0, "index dimension must be positive");
    hi_.reset(dim_);
    lo_.reset(dim_);
}

void
FlatIndex::reserve(std::size_t rows)
{
    hi_.reserve(rows);
    lo_.reserve(rows);
    ids_.reserve(rows);
    slotOf_.reserve(rows);
}

void
FlatIndex::insert(std::uint64_t id, const Embedding &embedding)
{
    MODM_ASSERT(embedding.dim() == dim_,
                "index insert: dimension %zu != %zu", embedding.dim(), dim_);
    MODM_ASSERT(!contains(id), "index insert: duplicate id %llu",
                static_cast<unsigned long long>(id));
    const float *x = embedding.vec().data();
    double sq = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        MODM_ASSERT(std::isfinite(x[i]),
                    "index insert: component %zu is not finite", i);
        sq += static_cast<double>(x[i]) * static_cast<double>(x[i]);
    }
    normBound_ = std::max(normBound_, std::sqrt(sq));
    slotOf_[id] = ids_.size();
    ids_.push_back(id);
    std::uint16_t *hi = hi_.append();
    std::uint16_t *lo = lo_.append();
    for (std::size_t i = 0; i < dim_; ++i) {
        hi[i] = kernels::highHalf(x[i]);
        lo[i] = kernels::lowHalf(x[i]);
    }
}

bool
FlatIndex::remove(std::uint64_t id)
{
    const auto it = slotOf_.find(id);
    if (it == slotOf_.end())
        return false;
    const std::size_t slot = it->second;
    const std::size_t last = ids_.size() - 1;
    if (slot != last) {
        // Swap the last row into the vacated slot.
        ids_[slot] = ids_[last];
        slotOf_[ids_[slot]] = slot;
    }
    hi_.swapRemove(slot);
    lo_.swapRemove(slot);
    ids_.pop_back();
    slotOf_.erase(it);
    return true;
}

bool
FlatIndex::contains(std::uint64_t id) const
{
    return slotOf_.find(id) != slotOf_.end();
}

Match
FlatIndex::best(const Embedding &query) const
{
    Match result;
    if (empty())
        return result;
    MODM_ASSERT(query.dim() == dim_, "index query: dimension mismatch");
    // The kernel admits strictly-greater scores in slot order, so the
    // earliest slot wins ties.
    std::size_t slot = 0;
    double score = 0.0;
    kernels::bestSplit(query.vec().data(), planes(), &slot, &score);
    result.id = ids_[slot];
    result.similarity = score;
    return result;
}

std::vector<Match>
FlatIndex::topK(const Embedding &query, std::size_t k) const
{
    std::vector<Match> result;
    if (empty() || k == 0)
        return result;
    MODM_ASSERT(query.dim() == dim_, "index query: dimension mismatch");
    const auto top = kernels::topKSplit(query.vec().data(), planes(), k);
    result.reserve(top.size());
    for (const auto &entry : top)
        result.push_back({ids_[entry.slot], entry.score});
    return result;
}

void
FlatIndex::clear()
{
    hi_.clear();
    lo_.clear();
    normBound_ = 0.0;
    ids_.clear();
    slotOf_.clear();
}

kernels::SplitRows
FlatIndex::planes() const
{
    kernels::SplitRows rows;
    rows.hi = hi_.data();
    rows.lo = lo_.data();
    rows.stride = hi_.stride();
    rows.count = ids_.size();
    rows.n = dim_;
    rows.normBound = normBound_;
    return rows;
}

} // namespace modm::embedding
