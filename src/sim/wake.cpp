#include "sim/wake.hpp"

#include <algorithm>
#include <cassert>

namespace anton2 {

void
WakeSet::resize(std::size_t components, std::size_t slots)
{
    assert(std::has_single_bit(slots));
    assert(std::none_of(calendar_.begin(), calendar_.end(),
                        [](std::uint64_t w) { return w != 0; })
           && "resizing a calendar with pending wakes");
    const std::size_t words = (components + 63) / 64;
    awake_.resize(words, 0);
    for (std::size_t i = components_; i < components; ++i)
        awake_[i >> 6] |= bitOf(static_cast<std::uint32_t>(i));
    components_ = components;
    // Registration adds one component at a time: reallocate the ring
    // only when its shape changes.
    const auto mask = static_cast<Cycle>(slots - 1);
    if (words != words_ || mask != mask_) {
        words_ = words;
        mask_ = mask;
        calendar_.assign(slots * words, 0);
    }
}

void
WakeSet::wakeAll()
{
    std::fill(calendar_.begin(), calendar_.end(), 0);
    std::fill(awake_.begin(), awake_.end(), 0);
    for (std::size_t i = 0; i < components_; ++i)
        awake_[i >> 6] |= bitOf(static_cast<std::uint32_t>(i));
}

} // namespace anton2
