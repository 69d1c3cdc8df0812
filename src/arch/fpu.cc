#include "arch/fpu.h"

#include "common/log.h"

namespace cyclops::arch
{

void
Fpu::init(u32 id, const ChipConfig &cfg, StatGroup *stats)
{
    cfg_ = &cfg;
    if (stats) {
        const std::string prefix = strprintf("fpu%u.", id);
        stats->addCounter(prefix + "ops", &ops_);
        stats->addCounter(prefix + "addOps", &addOps_);
        stats->addCounter(prefix + "mulOps", &mulOps_);
        stats->addCounter(prefix + "fmaOps", &fmaOps_);
        stats->addCounter(prefix + "divOps", &divOps_);
        stats->addCounter(prefix + "sqrtOps", &sqrtOps_);
        stats->addCounter(prefix + "conflicts", &conflicts_);
    }
}

bool
Fpu::dispatch(Cycle now, FpuOp op, Cycle *resultAt)
{
    if (conflict(now, op))
        return false;
    const LatencyConfig &lat = cfg_->lat;
    switch (op) {
      case FpuOp::Add:
        addFree_ = now + lat.fpAddExec;
        *resultAt = now + lat.fpAddExec + lat.fpAddLat;
        ++addOps_;
        break;
      case FpuOp::Mul:
        mulFree_ = now + lat.fpAddExec;
        *resultAt = now + lat.fpAddExec + lat.fpAddLat;
        ++mulOps_;
        break;
      case FpuOp::Fma:
        addFree_ = mulFree_ = now + lat.fmaExec;
        *resultAt = now + lat.fmaExec + lat.fmaLat;
        ++fmaOps_;
        break;
      case FpuOp::Div:
        divFree_ = now + lat.fpDivExec;
        *resultAt = now + lat.fpDivExec;
        ++divOps_;
        break;
      case FpuOp::Sqrt:
        divFree_ = now + lat.fpSqrtExec;
        *resultAt = now + lat.fpSqrtExec;
        ++sqrtOps_;
        break;
    }
    ++ops_;
    return true;
}

} // namespace cyclops::arch
