#include "support/threadpool.hpp"

#include <cstdlib>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "support/log.hpp"

namespace autocomm::support {

namespace {
/** Live pools, for the process-wide total_* snapshots. Lock order:
 * registry mutex before any pool's own mutex (total_queue_depth);
 * nothing ever takes them the other way around. */
std::mutex g_pools_mu;
std::vector<ThreadPool*> g_pools;
} // namespace

std::size_t
ThreadPool::total_queue_depth()
{
    std::size_t total = 0;
    std::lock_guard<std::mutex> pools_lock(g_pools_mu);
    for (ThreadPool* pool : g_pools) {
        std::lock_guard<std::mutex> lock(pool->mutex_);
        total += pool->jobs_.size();
    }
    return total;
}

std::size_t
ThreadPool::total_active_workers()
{
    std::size_t total = 0;
    std::lock_guard<std::mutex> pools_lock(g_pools_mu);
    for (const ThreadPool* pool : g_pools)
        total += pool->active_.load(std::memory_order_relaxed);
    return total;
}

std::size_t
ThreadPool::total_workers()
{
    std::size_t total = 0;
    std::lock_guard<std::mutex> pools_lock(g_pools_mu);
    for (const ThreadPool* pool : g_pools)
        total += pool->workers_.size();
    return total;
}

std::size_t
default_thread_count()
{
    // Capped so a fat-fingered value degrades to "a lot of threads"
    // instead of thread-creation failure mid-constructor.
    if (const char* v = std::getenv("AUTOCOMM_THREADS")) {
        char* end = nullptr;
        const long n = std::strtol(v, &end, 10);
        if (end != v && *end == '\0' && n > 0) {
            if (static_cast<unsigned long>(n) > kMaxThreads) {
                warn("capping AUTOCOMM_THREADS=%ld to %zu", n, kMaxThreads);
                return kMaxThreads;
            }
            return static_cast<std::size_t>(n);
        }
        if (v[0] != '\0')
            warn("ignoring invalid AUTOCOMM_THREADS=\"%s\"", v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0)
        num_threads = default_thread_count();
    workers_.reserve(num_threads);
    try {
        for (std::size_t i = 0; i < num_threads; ++i)
            workers_.emplace_back([this, i]() { worker_loop(i); });
    } catch (...) {
        // Join the threads that did start; leaving them joinable would
        // make workers_'s destructor call std::terminate.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        work_cv_.notify_all();
        for (std::thread& w : workers_)
            w.join();
        throw;
    }
    std::lock_guard<std::mutex> pools_lock(g_pools_mu);
    g_pools.push_back(this);
}

ThreadPool::~ThreadPool()
{
    {
        // Deregister first so a concurrent total_* snapshot never walks
        // a pool that is tearing down.
        std::lock_guard<std::mutex> pools_lock(g_pools_mu);
        std::erase(g_pools, this);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_)
        w.join();
    if (!error_)
        return;
    try {
        std::rethrow_exception(error_);
    } catch (const std::exception& e) {
        warn("ThreadPool: a job's exception was never waited for: %s",
             e.what());
    } catch (...) {
        warn("ThreadPool: a job's exception was never waited for");
    }
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            fatal("ThreadPool::submit on a stopped pool");
        jobs_.push_back(std::move(job));
        ++unfinished_;
    }
    work_cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_cv_.wait(lock, [this]() { return unfinished_ == 0; });
        error = std::exchange(error_, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::worker_loop(std::size_t idx)
{
    // Register the lane name up front (not lazily on first span) so the
    // trace shows every pool worker, including ones that stayed idle.
    obs::set_lane_name(strprintf("worker-%zu", idx));
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock,
                          [this]() { return stopping_ || !jobs_.empty(); });
            if (jobs_.empty())
                return; // stopping_ and drained
            job = std::move(jobs_.back());
            jobs_.pop_back();
        }
        active_.fetch_add(1, std::memory_order_relaxed);
        std::exception_ptr error;
        try {
            job();
        } catch (...) {
            error = std::current_exception();
        }
        job = nullptr; // release the job's captures before it counts done
        active_.fetch_sub(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex_);
        if (error && !error_)
            error_ = std::move(error);
        if (--unfinished_ == 0)
            idle_cv_.notify_all();
    }
}

} // namespace autocomm::support
