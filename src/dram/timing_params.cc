#include "timing_params.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace nuat {

void
TimingParams::validate() const
{
    nuat_assert(tRC == tRAS + tRP, "(tRC %llu != tRAS %llu + tRP %llu)",
                static_cast<unsigned long long>(tRC),
                static_cast<unsigned long long>(tRAS),
                static_cast<unsigned long long>(tRP));
    nuat_assert(tRCD > 0 && tRAS >= tRCD);
    nuat_assert(tBL > 0 && tCCD >= tBL);
    nuat_assert(tCL > 0 && tCWL > 0);
    nuat_assert(tFAW >= tRRD, "(tFAW must cover at least one tRRD)");
    nuat_assert(tCCD_L >= tCCD,
                "(same-group column gap cannot beat the global one)");
    nuat_assert(tRRD_L >= tRRD,
                "(same-group ACT gap cannot beat the global one)");
    nuat_assert(rowsPerRef > 0);
    nuat_assert(tRFC > 0 && tREFI > tRFC,
                "(refresh would saturate the device)");
    nuat_assert(tRFCpb > 0 && tRFCpb <= tRFC,
                "(single-bank refresh cannot outlast all-bank)");
    nuat_assert(tREFI > tRFCpb,
                "(per-bank refresh would saturate the device)");
    // The charge model's refresh-slack guard must cover the furthest a
    // policy may legally postpone a refresh, or an in-window deferral
    // could void the derated-timing safety proof.
    nuat_assert(refPostponeWindow() <= maxRefreshSlack,
                "(postponement window %llu exceeds refresh slack %llu)",
                static_cast<unsigned long long>(refPostponeWindow()),
                static_cast<unsigned long long>(maxRefreshSlack));
}

void
DramGeometry::validate() const
{
    nuat_assert(channels > 0 && ranks > 0 && banks > 0);
    nuat_assert(channels <= kMaxChannels, "(channels must be at most %u)",
                kMaxChannels);
    nuat_assert(isPowerOfTwo(channels) && isPowerOfTwo(ranks));
    nuat_assert(isPowerOfTwo(banks));
    nuat_assert(isPowerOfTwo(rows) && isPowerOfTwo(columns));
    nuat_assert(isPowerOfTwo(lineBytes) && isPowerOfTwo(columnBytes));
    nuat_assert(lineBytes >= columnBytes,
                "(cache line smaller than a device column)");
    nuat_assert(columns * columnBytes >= lineBytes,
                "(row smaller than a cache line)");
    nuat_assert(bankGroups > 0 && isPowerOfTwo(bankGroups));
    nuat_assert(banks % bankGroups == 0,
                "(bank groups must partition the banks evenly)");
}

} // namespace nuat
