#ifndef ENLD_COMMON_PARALLEL_H_
#define ENLD_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace enld {

/// Shared parallelism substrate: a lazily-initialized global thread pool
/// plus deterministic loop/reduction helpers built on it.
///
/// Thread count resolution (first use wins):
///   1. SetParallelThreads(n), if called before the first parallel call;
///   2. the ENLD_THREADS environment variable, if set to a positive integer;
///   3. std::thread::hardware_concurrency().
/// A count of 1 runs every loop inline on the caller's thread — the exact
/// legacy sequential path, with no pool, no tasks and no synchronization.
///
/// Determinism contract: chunk boundaries depend only on (begin, end,
/// grain), never on the thread count, and ParallelReduce combines partials
/// in chunk order on the calling thread. Call sites in this library only
/// parallelize work whose per-element floating-point operation order is
/// unchanged by chunking (row-independent kernels, per-query searches) or
/// whose accumulation is exact (integer counts), so results are
/// bit-identical at any thread count, including the sequential path.

/// Number of threads parallel loops may use (>= 1).
size_t ParallelThreadCount();

/// Reconfigures the global pool to `threads` workers; 0 restores the
/// ENLD_THREADS / hardware default. Tears down and rebuilds the pool, so it
/// must not race with in-flight parallel loops. Intended for benchmarks and
/// tests that sweep thread counts inside one process.
void SetParallelThreads(size_t threads);

/// Runs `fn(chunk_begin, chunk_end)` over consecutive chunks of [begin,
/// end), each at most `grain` long (grain 0 is treated as 1). Chunks may
/// execute concurrently and in any order; the call returns after every
/// chunk has finished. The first exception thrown by `fn` is rethrown on
/// the calling thread (remaining chunks are abandoned). Nested calls from
/// inside a chunk run inline — safe, sequential.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// Deterministic chunked reduction: `map(chunk_begin, chunk_end)` produces
/// one partial per chunk, and `combine(acc, partial)` folds the partials
/// *in chunk order* on the calling thread. Because the chunk decomposition
/// depends only on `grain`, the result is identical at any thread count.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(size_t begin, size_t end, size_t grain, T init,
                 const MapFn& map, const CombineFn& combine) {
  if (end <= begin) return init;
  const size_t g = grain == 0 ? 1 : grain;
  const size_t chunks = (end - begin + g - 1) / g;
  std::vector<T> partials(chunks);
  ParallelFor(0, chunks, 1, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const size_t lo = begin + c * g;
      const size_t hi = std::min(end, lo + g);
      partials[c] = map(lo, hi);
    }
  });
  T acc = std::move(init);
  for (size_t c = 0; c < chunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[c]));
  }
  return acc;
}

}  // namespace enld

#endif  // ENLD_COMMON_PARALLEL_H_
