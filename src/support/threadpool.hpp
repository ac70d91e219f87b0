/**
 * @file
 * A fixed-size worker pool for CPU-bound compilation jobs. Jobs are
 * plain void() callables; wait() blocks until every job has run, the
 * ones jobs submitted included, and rethrows the first exception a job
 * let escape, so a worker throwing never takes down the pool.
 *
 * This is deliberately a plain pool with one shared queue (no work
 * stealing): sweep jobs are coarse-grained, so the queue is never the
 * bottleneck.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autocomm::support {

/** Most worker threads a pool may be asked for, by AUTOCOMM_THREADS or
 * a --threads flag: more is a typo, not a machine. */
inline constexpr std::size_t kMaxThreads = 1024;

/**
 * Thread count from the AUTOCOMM_THREADS environment variable (capped at
 * kMaxThreads), falling back to std::thread::hardware_concurrency() (at
 * least 1).
 */
std::size_t default_thread_count();

/**
 * Fixed-size thread pool that runs the newest queued job first (a LIFO
 * stack, not a FIFO queue). Destruction drains pending jobs and warns
 * about an exception no wait() collected.
 *
 * Newest-first is what bounds driver::run_sweep's memory: each stage
 * submits its successors as it finishes, so a worker goes on with the
 * work it just made ready (depth first) and the product it just built
 * is consumed and freed before another program is started. A FIFO
 * queue runs the same DAG breadth first and keeps every program's
 * circuit, blocks and layouts alive at once. Depth-first execution keeps
 * live space close to a serial run's (Blumofe & Leiserson, JACM 1999;
 * Blelloch, Gibbons & Matias, JACM 1999).
 */
class ThreadPool
{
  public:
    /** @p num_threads == 0 selects default_thread_count(). */
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * Process-wide utilization figures summed over every live pool —
     * the obs::ResourceSampler's feed, decoupled from pool lifetime
     * (run_sweep's pool lives only for the call). Each is a snapshot:
     * queued jobs not yet picked up, workers currently inside a job,
     * and total worker threads. Safe from any thread; pure observers.
     */
    static std::size_t total_queue_depth();
    static std::size_t total_active_workers();
    static std::size_t total_workers();

    /** Queue @p job; it runs before every job queued earlier. A job may
     * submit further jobs. */
    void submit(std::function<void()> job);

    /**
     * Block until no job is queued or running, jobs submitted by jobs
     * included, then rethrow the first exception a job let escape since
     * the last wait() (later ones are dropped). Call it from outside the
     * pool: a job that waits on its own pool never sees it go idle.
     */
    void wait();

  private:
    void worker_loop(std::size_t idx);

    /** Pending jobs; the back is the newest and runs first. */
    std::vector<std::function<void()>> jobs_;
    std::mutex mutex_;
    /** Wakes workers: a job was queued, or the pool is stopping. */
    std::condition_variable work_cv_;
    /** Wakes wait(): unfinished_ reached zero. */
    std::condition_variable idle_cv_;
    /** Jobs queued or running. A job's own submits are counted before
     * the job is uncounted, so this reaches zero only when all are done. */
    std::size_t unfinished_ = 0;
    /** The first exception a job let escape, until wait() takes it. */
    std::exception_ptr error_;
    bool stopping_ = false;
    /** Workers currently executing a job (total_active_workers). */
    std::atomic<std::size_t> active_{0};
    /** Declared last: the workers use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace autocomm::support
