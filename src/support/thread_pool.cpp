#include "support/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "support/stopwatch.hpp"
#include "support/telemetry_hook.hpp"

namespace ais {

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // Wrap tasks with queue-wait/run timing when a telemetry sink is live
  // (obs installs one; see support/telemetry_hook.hpp for the layering).
  // Checked per submit so an AIS_OBS=OFF build or a disabled run pays only
  // one relaxed load here and nothing per task.
  if (const TelemetrySink* sink = telemetry_sink();
      sink != nullptr && sink->enabled()) {
    task = [sink, enqueue_us = Stopwatch::now_us(),
            inner = std::move(task)] {
      const std::int64_t start_us = Stopwatch::now_us();
      sink->value(kPoolQueueWaitUs,
                  static_cast<std::uint64_t>(start_us - enqueue_us));
      inner();
      sink->value(kPoolRunUs, static_cast<std::uint64_t>(
                                  Stopwatch::now_us() - start_us));
    };
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  while (!queue_.empty() || busy_ != 0) all_idle_.wait(mu_);
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) task_ready_.wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    task();
    {
      MutexLock lock(mu_);
      --busy_;
      if (queue_.empty() && busy_ == 0) all_idle_.notify_all();
    }
  }
}

int clamp_jobs(int jobs) {
  if (jobs > 0) return jobs;
  // The CPUs this process may run on (taskset, cpusets, systemd
  // CPUAffinity), not every CPU the machine has: more workers than allowed
  // CPUs only time-slice against each other.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int n = CPU_COUNT(&allowed);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  jobs = clamp_jobs(jobs);
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(jobs), n));
  std::atomic<std::size_t> next{0};
  ThreadPool pool(workers);
  for (int w = 0; w < workers; ++w) {
    pool.submit([&next, n, &fn] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  pool.wait_idle();
}

}  // namespace ais
