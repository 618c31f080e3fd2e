// Machine-speed calibration for the host-time metrics.
//
// On a shared VM the same binary doing bit-identical work runs up to twice
// as slow for minutes at a time (other tenants on the same cores and memory
// bus; steal time stays near zero and there are no hardware counters to
// count instructions instead). calibration_kernel() is a fixed workload
// owned by the benchmark — a random-access table walk, a priority queue and
// a hash map, the same kinds of work the simulator does, but none of the
// repository's code — so its time tracks only how fast the machine is right
// now. Host times are reported scaled by kReferenceKernelNs / kernel time.
#pragma once

#include <cstdint>

namespace hostbench {

/// Kernel time the scaled metrics are expressed against: host times read
/// as if measured on a machine that runs the kernel in this many ns.
inline constexpr double kReferenceKernelNs = 100e6;

/// Runs the fixed calibration workload once and returns its wall time in
/// ns. `sink` receives a checksum so the work cannot be optimised away.
double calibration_kernel(std::uint64_t& sink);

}  // namespace hostbench
