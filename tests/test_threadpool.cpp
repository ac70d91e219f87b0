/**
 * @file
 * Property tests for support::ThreadPool: every submitted job runs
 * exactly once under any thread count, queued jobs run newest first,
 * wait() covers jobs that jobs submitted, and an exception a job lets
 * escape is rethrown by the next wait() and only by it.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/log.hpp"
#include "support/threadpool.hpp"

namespace {

using namespace autocomm;
using support::ThreadPool;

TEST(ThreadPool, ManyJobsAllRunExactlyOnce)
{
    for (std::size_t threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(257);
        for (std::size_t i = 0; i < hits.size(); ++i)
            pool.submit([&hits, i]() { ++hits[i]; });
        pool.wait();
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "job " << i << ", " << threads << " threads";
    }
}

TEST(ThreadPool, WaitOnAnIdlePoolReturnsAtOnce)
{
    ThreadPool pool(2);
    pool.wait();
}

TEST(ThreadPool, NewestQueuedJobRunsFirst)
{
    // run_sweep's memory bound rests on this order: a stage's successors
    // run before older queued work.
    ThreadPool pool(1);
    std::promise<void> started, unblock;
    std::shared_future<void> released = unblock.get_future().share();
    pool.submit([&started, released]() {
        started.set_value();
        released.wait();
    });
    started.get_future().wait(); // the only worker is now held busy
    std::mutex mu;
    std::string order;
    pool.submit([&]() {
        std::lock_guard<std::mutex> lock(mu);
        order += 'A';
    });
    pool.submit([&]() {
        std::lock_guard<std::mutex> lock(mu);
        order += 'B';
    });
    unblock.set_value();
    pool.wait();
    EXPECT_EQ(order, "BA");
}

TEST(ThreadPool, WaitCoversJobsSubmittedByJobs)
{
    // A 3-level chain: each job submits the next one and returns at once,
    // and the leaf is slow. wait() must not return when the top-level
    // job is done, only when the leaf is.
    for (std::size_t threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::atomic<int> leaves{0};
        for (int chain = 0; chain < 4; ++chain)
            pool.submit([&pool, &leaves]() {
                pool.submit([&pool, &leaves]() {
                    pool.submit([&leaves]() {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                        ++leaves;
                    });
                });
            });
        pool.wait();
        EXPECT_EQ(leaves.load(), 4) << threads << " threads";
    }
}

TEST(ThreadPool, WaitRethrowsAnEscapedExceptionOnce)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&ran, i]() {
            ++ran;
            if (i == 5)
                throw std::runtime_error("worker boom");
        });
    try {
        pool.wait();
        FAIL() << "expected wait() to rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "worker boom");
    }
    // A failing job cancels nothing, and the pool stays usable.
    EXPECT_EQ(ran.load(), 16);

    // The exception was handed over: a later wait() with no failing job
    // returns normally.
    pool.submit([&ran]() { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 17);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvVariable)
{
    ::setenv("AUTOCOMM_THREADS", "3", 1);
    EXPECT_EQ(support::default_thread_count(), 3u);
    ::setenv("AUTOCOMM_THREADS", "100000", 1);
    EXPECT_EQ(support::default_thread_count(), support::kMaxThreads);
    ::setenv("AUTOCOMM_THREADS", "not-a-number", 1);
    EXPECT_GE(support::default_thread_count(), 1u);
    ::unsetenv("AUTOCOMM_THREADS");
    EXPECT_GE(support::default_thread_count(), 1u);

    // The pool itself honors it: three worker lanes while it lives.
    ::setenv("AUTOCOMM_THREADS", "3", 1);
    const std::size_t before = ThreadPool::total_workers();
    {
        ThreadPool pool;
        EXPECT_EQ(ThreadPool::total_workers(), before + 3);
    }
    EXPECT_EQ(ThreadPool::total_workers(), before);
    ::unsetenv("AUTOCOMM_THREADS");
}

} // namespace
