/**
 * @file
 * Property tests for support::ThreadPool: results and exceptions travel
 * through futures, queued jobs run newest first, parallel_for covers
 * every index exactly once under any thread count, and worker exceptions
 * propagate to the caller.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/log.hpp"
#include "support/threadpool.hpp"

namespace {

using namespace autocomm;
using support::ThreadPool;

TEST(ThreadPool, SubmitReturnsValueThroughFuture)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.size(), 2u);
    auto f = pool.submit([]() { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw std::runtime_error("worker boom");
    });
    EXPECT_THROW(
        {
            try {
                f.get();
            } catch (const std::runtime_error& e) {
                EXPECT_STREQ(e.what(), "worker boom");
                throw;
            }
        },
        std::runtime_error);
}

TEST(ThreadPool, ManyJobsAllRunOnSingleThread)
{
    ThreadPool pool(1);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&count]() { ++count; }));
    for (auto& f : futures)
        f.get();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NewestQueuedJobRunsFirst)
{
    // run_sweep's memory bound rests on this order: a stage's successors
    // run before older queued work.
    ThreadPool pool(1);
    std::promise<void> started, unblock;
    auto busy = pool.submit([&]() {
        started.set_value();
        unblock.get_future().wait();
    });
    started.get_future().wait(); // the only worker is now held busy
    std::mutex mu;
    std::string order;
    auto a = pool.submit([&]() {
        std::lock_guard<std::mutex> lock(mu);
        order += 'A';
    });
    auto b = pool.submit([&]() {
        std::lock_guard<std::mutex> lock(mu);
        order += 'B';
    });
    unblock.set_value();
    busy.get();
    a.get();
    b.get();
    EXPECT_EQ(order, "BA");
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    for (std::size_t threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(257);
        support::parallel_for(pool, hits.size(),
                              [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForZeroIterationsIsANoop)
{
    ThreadPool pool(2);
    support::parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexFailure)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        support::parallel_for(pool, 64, [&](std::size_t i) {
            ++ran;
            if (i == 7 || i == 31)
                throw std::runtime_error("iteration " + std::to_string(i));
        });
        FAIL() << "expected parallel_for to rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "iteration 7");
    }
    // Failing iterations must not cancel the rest.
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvVariable)
{
    ::setenv("AUTOCOMM_THREADS", "3", 1);
    EXPECT_EQ(support::default_thread_count(), 3u);
    ::setenv("AUTOCOMM_THREADS", "not-a-number", 1);
    EXPECT_GE(support::default_thread_count(), 1u);
    ::unsetenv("AUTOCOMM_THREADS");
    EXPECT_GE(support::default_thread_count(), 1u);
}

} // namespace
