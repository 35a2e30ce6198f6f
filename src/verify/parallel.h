// The former name of the LTL verifier front end. LtlVerifier
// (verify/ltl_verifier.h) takes the job count itself and schedules the
// Theorem 3.5 sweep inline at one job and on a thread pool above; its
// implementation, the scheduling included, is verify/parallel.cc.
//
// The alias remains only for code that still spells the old name.

#ifndef WSV_VERIFY_PARALLEL_H_
#define WSV_VERIFY_PARALLEL_H_

#include "verify/ltl_verifier.h"

namespace wsv {

using ParallelLtlVerifier = LtlVerifier;

}  // namespace wsv

#endif  // WSV_VERIFY_PARALLEL_H_
