// parallel_stepper.h - Fixed-partition worker pool for the deterministic
// parallel node stepper.
//
// The cluster daemons' hot work is advancing every node's lazily
// synchronised core models up to a summary instant.  Those advances touch
// only per-core state — each core owns its RNG stream, sampling-grid
// cursor, counter history and value-copied workload runners — so distinct
// nodes can advance concurrently without changing a single bit of the
// result: a pre-synced core subdivides the skipped span at its own
// sampling grid (cpu::Core::set_sampling_grid), reproducing exactly the
// sync boundaries the serial run would have used, entirely within
// per-core state.  Everything order-sensitive
// (journal emission, channel sends, coordinator rounds, history replay
// into the samplers) stays on the simulation thread, run in node order
// after the pool joins.
//
// StepPool implements the parallel half.  run(n, fn) executes fn(i) for
// every i in [0, n); worker w owns the fixed partition { i : i % threads
// == w }, so each index is always processed by the same worker regardless
// of timing — the assignment is part of the contract, not a scheduling
// accident — and the calling thread participates as worker 0.  run()
// blocks until every index has completed; the mutex/condvar handshake also
// provides the happens-before edges that let workers read state the caller
// wrote before the call (the simulation clock) and the caller read state
// the workers wrote (the advanced cores).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fvsst::cluster {

class StepPool {
 public:
  /// `threads` <= 1 creates no workers; run() then executes inline.
  explicit StepPool(int threads);
  ~StepPool();
  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n) across the pool and blocks until all
  /// are done.  fn must be callable concurrently for distinct i and must
  /// not throw.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_main(std::size_t worker);

  const int threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  ///< Bumped once per run() dispatch.
  std::size_t n_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  int outstanding_ = 0;
  bool stop_ = false;
};

}  // namespace fvsst::cluster
