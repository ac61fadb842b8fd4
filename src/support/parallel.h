// OpenMP-backed parallel loop helpers.
//
// CLPP dogfoods the shared-memory parallelism it studies: GEMM and batched
// inference use these helpers, which degrade gracefully to serial execution
// when the compiler has no OpenMP support.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(_OPENMP)
#include <omp.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define CLPP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CLPP_TSAN 1
#endif
#endif
#if defined(CLPP_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace clpp {

namespace detail {

#if defined(CLPP_TSAN)
// libgomp is not built with TSan, so TSan cannot see the happens-before
// edges of a parallel region's fork and join, and would report every team
// member's work as racing with the caller. run_team restates the two edges,
// and is itself left uninstrumented so the region's argument block (written
// by the caller, read by each member before the fork edge) is not flagged.
// The loop body stays instrumented.
#define CLPP_TEAM_ATTRS __attribute__((no_sanitize("thread"), noinline))
inline void tsan_release(void* sync) { __tsan_release(sync); }
inline void tsan_acquire(void* sync) { __tsan_acquire(sync); }
#else
#define CLPP_TEAM_ATTRS
inline void tsan_release(void*) {}
inline void tsan_acquire(void*) {}
#endif

#if defined(_OPENMP)
template <typename Body>
CLPP_TEAM_ATTRS void run_team(std::int64_t count, const Body& body) {
  char fork = 0, join = 0;  // only their addresses matter (TSan sync ids)
  tsan_release(&fork);
#pragma omp parallel
  {
    tsan_acquire(&fork);
    // Label team members (not the calling thread) for trace exports.
    if (omp_get_thread_num() != 0) obs::name_worker_thread();
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) body(static_cast<std::size_t>(i));
    tsan_release(&join);
  }
  tsan_acquire(&join);
}
#endif

}  // namespace detail

/// Caps the calling thread to one OpenMP thread, so every parallel_for it
/// runs from now on takes the serial path. The cap is per thread: it must
/// run on the thread that will run the loops, and threads started later
/// begin again from the process default. No-op without OpenMP.
inline void use_one_omp_thread() {
#if defined(_OPENMP)
  omp_set_num_threads(1);
#endif
}

/// Runs body(i) for i in [0, n); iterations must be independent.
/// `grain` suppresses parallelization for loops too small to amortize the
/// fork-join overhead — exactly the RQ1 trade-off the paper studies.
template <typename Body>
void parallel_for(std::size_t n, const Body& body, std::size_t grain = 1024) {
#if defined(_OPENMP)
  if (n >= grain && omp_get_max_threads() > 1) {
    obs::record_parallel_loop(n, omp_get_max_threads());
    detail::run_team(static_cast<std::int64_t>(n), body);
    return;
  }
#endif
  obs::record_serial_loop(n);
  for (std::size_t i = 0; i < n; ++i) body(i);
}

}  // namespace clpp
