/**
 * @file
 * Base class for cycle-evaluated hardware components.
 */
#pragma once

#include "sim/types.hpp"

namespace anton2 {

/**
 * A hardware block evaluated once per clock cycle by the Engine.
 *
 * Components communicate exclusively through Wire<T> delay lines, so the
 * relative evaluation order of components within a cycle is unobservable.
 */
class Component
{
  public:
    Component() = default;
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Evaluate one clock cycle at time @p now. */
    virtual void tick(Cycle now) = 0;

    /**
     * True while the component holds buffered state that still needs clock
     * cycles to drain, values in flight on its wires included (used for
     * quiescence detection: Engine::busy). Whether the engine ticks the
     * component is decided separately, by its wakes (sim/wake.hpp).
     */
    virtual bool busy() const { return false; }
};

} // namespace anton2
