/**
 * @file
 * The quad-shared floating point unit.
 *
 * Three functional units per FPU: an adder, a multiplier, and a divide
 * and square-root unit. The adder and multiplier are fully pipelined
 * (one dispatch per cycle each); a fused multiply-add occupies both and
 * completes one FMA per cycle (1 GFlops per FPU at 500 MHz). Divide and
 * square root are unpipelined on the shared divide unit.
 *
 * Arbitration between the four threads of the quad is resolved by the
 * engine's rotating tick order (round-robin, as the paper specifies);
 * the FPU itself just tracks port occupancy.
 */

#ifndef CYCLOPS_ARCH_FPU_H
#define CYCLOPS_ARCH_FPU_H

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"

namespace cyclops::arch
{

/** Operation classes dispatched to an FPU. */
enum class FpuOp : u8 { Add, Mul, Fma, Div, Sqrt };

/** Timing model of one quad FPU. */
class Fpu
{
  public:
    void init(u32 id, const ChipConfig &cfg, StatGroup *stats);

    /**
     * Try to dispatch @p op at cycle @p now.
     *
     * @param[out] resultAt cycle the result becomes available
     * @return true on dispatch; false if the unit is busy this cycle
     *         (caller retries next cycle — a resource stall).
     */
    bool dispatch(Cycle now, FpuOp op, Cycle *resultAt);

    /**
     * True, counting one conflict, if the port(s) @p op needs are busy
     * at @p now — the check dispatch() fails on. The cycle engine calls
     * it directly to re-poll a parked FPU retry (arch/unit.h).
     */
    bool
    conflict(Cycle now, FpuOp op)
    {
        bool busy;
        switch (op) {
          case FpuOp::Add: busy = addFree_ > now; break;
          case FpuOp::Mul: busy = mulFree_ > now; break;
          case FpuOp::Fma: busy = addFree_ > now || mulFree_ > now; break;
          default: busy = divFree_ > now; break; // Div, Sqrt
        }
        if (busy)
            ++conflicts_;
        return busy;
    }

    u64 ops() const { return ops_.value(); }

  private:
    const ChipConfig *cfg_ = nullptr;
    Cycle addFree_ = 0;
    Cycle mulFree_ = 0;
    Cycle divFree_ = 0;

    Counter ops_;
    Counter addOps_;
    Counter mulOps_;
    Counter fmaOps_;
    Counter divOps_;
    Counter sqrtOps_;
    Counter conflicts_;
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_FPU_H
