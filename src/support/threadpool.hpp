/**
 * @file
 * A fixed-size worker pool for CPU-bound compilation jobs. Jobs are
 * submitted as callables and their results (or exceptions) come back
 * through std::future, so a worker throwing never takes down the pool.
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
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace autocomm::support {

/**
 * Thread count from the AUTOCOMM_THREADS environment variable, falling
 * back to std::thread::hardware_concurrency() (at least 1).
 */
std::size_t default_thread_count();

/**
 * Fixed-size thread pool that runs the newest queued job first (a LIFO
 * stack, not a FIFO queue). Destruction drains pending jobs.
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

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /**
     * True when the calling thread is a worker of any ThreadPool. A
     * worker that blocks on futures served by its own queue can deadlock
     * the pool once every worker does it; parallel_for consults this and
     * runs nested parallel sections inline instead.
     */
    static bool on_worker_thread();

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

    /**
     * Enqueue @p f for execution. The returned future yields f's result;
     * an exception thrown by f is rethrown from future::get().
     */
    template <typename F>
    std::future<std::invoke_result_t<F>> submit(F&& f)
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(f));
        std::future<R> fut = task->get_future();
        enqueue([task]() { (*task)(); });
        return fut;
    }

  private:
    void enqueue(std::function<void()> job);
    void worker_loop(std::size_t idx);

    std::vector<std::thread> workers_;
    /** Pending jobs; the back is the newest and runs first. */
    std::vector<std::function<void()>> jobs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    /** Workers currently executing a job (total_active_workers). */
    std::atomic<std::size_t> active_{0};
};

/**
 * Run fn(0) .. fn(n-1) on @p pool and block until all complete. Iterations
 * run concurrently; if any throw, every iteration still finishes and then
 * the exception of the lowest-index failing iteration is rethrown.
 */
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

} // namespace autocomm::support
