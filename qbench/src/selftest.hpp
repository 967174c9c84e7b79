#pragma once

namespace qbench
{

/*! Plants a dropped T, a flipped CNOT, an extra Z, a CNOT off a device
 *  edge, a wrong shift and a respelling counted as a new pipeline into
 *  real outputs, and checks each with the checker.  Also checks that
 *  the unmodified outputs pass.  Returns the number of misses. */
int run_selftest();

} // namespace qbench
