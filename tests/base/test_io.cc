/**
 * @file
 * base::io sink-layer tests: checked FileSink writes, the in-memory
 * capture sink, and — the part the journal fault suite leans on — the
 * deterministic FaultInjectingSink, which must split the write that
 * crosses its byte budget at the exact boundary and keep the budget
 * cumulative across sinks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "base/io.hh"
#include "temp_path.hh"

namespace
{

using namespace statsched::base::io;

using statsched::test::TempPath;

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(IoResult, ClassifiesFullMediaApartFromOtherErrors)
{
    const IoResult noSpace = IoResult::failure(ENOSPC, "write");
    EXPECT_EQ(noSpace.status, IoStatus::NoSpace);
    EXPECT_FALSE(noSpace.ok());
    EXPECT_FALSE(noSpace.detail.empty());

    const IoResult quota = IoResult::failure(EDQUOT, "write");
    EXPECT_EQ(quota.status, IoStatus::NoSpace);

    const IoResult io = IoResult::failure(EIO, "fsync");
    EXPECT_EQ(io.status, IoStatus::Error);
    EXPECT_EQ(io.error, EIO);

    EXPECT_TRUE(IoResult().ok());
}

TEST(FileSink, WritesAppendAndTruncateReplaces)
{
    TempPath path("io_test_file_sink");
    {
        IoResult open;
        auto sink = FileSink::open(path.str(), true, open);
        ASSERT_TRUE(sink) << open.detail;
        const auto hello = bytes("hello ");
        const IoResult w = sink->write(hello.data(), hello.size());
        EXPECT_TRUE(w.ok());
        EXPECT_EQ(w.bytesWritten, hello.size());
        EXPECT_TRUE(sink->sync().ok());
    }
    {
        // Reopen without truncation: bytes append after the prefix.
        IoResult open;
        auto sink = FileSink::open(path.str(), false, open);
        ASSERT_TRUE(sink) << open.detail;
        const auto world = bytes("world");
        EXPECT_TRUE(sink->write(world.data(), world.size()).ok());
    }
    std::vector<std::uint8_t> all;
    ASSERT_TRUE(readFileBytes(path.str(), all).ok());
    EXPECT_EQ(all, bytes("hello world"));

    {
        // Truncating open wipes the previous contents.
        IoResult open;
        auto sink = FileSink::open(path.str(), true, open);
        ASSERT_TRUE(sink) << open.detail;
        const auto fresh = bytes("fresh");
        EXPECT_TRUE(sink->write(fresh.data(), fresh.size()).ok());
    }
    ASSERT_TRUE(readFileBytes(path.str(), all).ok());
    EXPECT_EQ(all, bytes("fresh"));
}

TEST(FileSink, OpenFailureReportsStructuredResult)
{
    IoResult open;
    auto sink = FileSink::open("/nonexistent-dir/statsched-io-test",
                               true, open);
    EXPECT_FALSE(sink);
    EXPECT_FALSE(open.ok());
    EXPECT_FALSE(open.detail.empty());
}

TEST(FileHelpers, ExistsTruncateRemoveRename)
{
    TempPath a("io_test_helpers_a");
    EXPECT_FALSE(fileExists(a.str()));

    {
        IoResult open;
        auto sink = FileSink::open(a.str(), true, open);
        ASSERT_TRUE(sink) << open.detail;
        const auto payload = bytes("0123456789");
        ASSERT_TRUE(sink->write(payload.data(), payload.size()).ok());
    }
    EXPECT_TRUE(fileExists(a.str()));

    ASSERT_TRUE(truncateFile(a.str(), 4).ok());
    std::vector<std::uint8_t> data;
    ASSERT_TRUE(readFileBytes(a.str(), data).ok());
    EXPECT_EQ(data, bytes("0123"));

    ASSERT_TRUE(removeFile(a.str()).ok());
    EXPECT_FALSE(fileExists(a.str()));
    // Removing a missing file is not an error.
    EXPECT_TRUE(removeFile(a.str()).ok());

    const IoResult missing = readFileBytes(a.str(), data);
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.error, ENOENT);
    EXPECT_TRUE(data.empty());
}

TEST(MemorySink, CapturesBytesAndCountsOperations)
{
    MemorySink sink;
    const auto one = bytes("one");
    const auto two = bytes("two");
    EXPECT_TRUE(sink.write(one.data(), one.size()).ok());
    EXPECT_TRUE(sink.write(two.data(), two.size()).ok());
    EXPECT_TRUE(sink.sync().ok());
    EXPECT_EQ(sink.data(), bytes("onetwo"));
    EXPECT_EQ(sink.writes(), 2u);
    EXPECT_EQ(sink.syncs(), 1u);
}

TEST(FaultInjectingSink, SplitsTheCrossingWriteAtTheExactBoundary)
{
    auto plan = std::make_shared<FaultPlan>();
    plan->failAfterBytes = 7;
    auto memory = std::make_unique<MemorySink>();
    MemorySink *captured = memory.get();
    FaultInjectingSink sink(std::move(memory), plan);

    const auto first = bytes("0123");
    EXPECT_TRUE(sink.write(first.data(), first.size()).ok());
    EXPECT_TRUE(sink.sync().ok());

    // This write crosses the 7-byte budget: exactly 3 more bytes fit,
    // then NoSpace — a torn record, as on a really-full disk.
    const auto second = bytes("456789");
    const IoResult torn = sink.write(second.data(), second.size());
    EXPECT_EQ(torn.status, IoStatus::NoSpace);
    EXPECT_EQ(torn.bytesWritten, 3u);
    EXPECT_EQ(captured->data(), bytes("0123456"));
    EXPECT_TRUE(plan->triggered);

    // Once triggered, writes AND syncs fail; nothing more lands.
    const auto more = bytes("x");
    EXPECT_EQ(sink.write(more.data(), more.size()).status,
              IoStatus::NoSpace);
    EXPECT_EQ(sink.sync().status, IoStatus::NoSpace);
    EXPECT_EQ(captured->data().size(), 7u);
}

TEST(FaultInjectingSink, BudgetIsCumulativeAcrossSinks)
{
    // The plan is one disk: sinks opened through the same factory
    // draw on one budget, so the fault fires at the same global byte
    // offset however many files a scenario writes.
    TempPath file0("io_test_fault_file0");
    TempPath file1("io_test_fault_file1");
    auto plan = std::make_shared<FaultPlan>();
    plan->failAfterBytes = 10;
    const SinkFactory factory =
        faultInjectingFileSinkFactory(plan);

    IoResult open;
    auto first = factory(file0.str(), true, open);
    ASSERT_TRUE(first) << open.detail;
    const auto six = bytes("aaaaaa");
    EXPECT_TRUE(first->write(six.data(), six.size()).ok());

    auto second = factory(file1.str(), true, open);
    ASSERT_TRUE(second) << open.detail;
    // 6 of 10 budget bytes are spent; only 4 of these 6 fit.
    const auto more = bytes("bbbbbb");
    const IoResult torn = second->write(more.data(), more.size());
    EXPECT_EQ(torn.status, IoStatus::NoSpace);
    EXPECT_EQ(torn.bytesWritten, 4u);

    std::vector<std::uint8_t> data;
    ASSERT_TRUE(readFileBytes(file1.str(), data).ok());
    EXPECT_EQ(data, bytes("bbbb"));
}

TEST(FaultInjectingSink, ZeroBudgetFailsTheFirstByte)
{
    auto plan = std::make_shared<FaultPlan>();
    plan->failAfterBytes = 0;
    FaultInjectingSink sink(std::make_unique<MemorySink>(), plan);
    const auto payload = bytes("x");
    const IoResult r = sink.write(payload.data(), payload.size());
    EXPECT_EQ(r.status, IoStatus::NoSpace);
    EXPECT_EQ(r.bytesWritten, 0u);
}

} // namespace
