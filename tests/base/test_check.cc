/**
 * @file
 * Tests for the base/check.hh contract layer: violations throw
 * ContractViolation with the contract kind, condition text and source
 * location attached.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "base/check.hh"

namespace
{

using statsched::contractKindName;
using statsched::ContractKind;
using statsched::ContractViolation;

TEST(Check, PassingContractsAreSilent)
{
    EXPECT_NO_THROW({
        SCHED_REQUIRE(1 + 1 == 2, "arithmetic works");
        SCHED_ENSURE(true, "trivially true");
        SCHED_INVARIANT(42 > 0, "positive");
    });
}

TEST(Check, RequireViolationThrowsWithKind)
{
    try {
        SCHED_REQUIRE(2 + 2 == 5, "arithmetic is broken");
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation &violation) {
        EXPECT_EQ(ContractKind::Require, violation.kind());
        EXPECT_EQ("arithmetic is broken", violation.message());
        EXPECT_EQ(std::string("2 + 2 == 5"),
                  violation.condition());
        EXPECT_NE(nullptr, violation.file());
        EXPECT_GT(violation.line(), 0);
    }
}

TEST(Check, EnsureAndInvariantCarryTheirKinds)
{
    try {
        SCHED_ENSURE(false, "postcondition");
        FAIL();
    } catch (const ContractViolation &violation) {
        EXPECT_EQ(ContractKind::Ensure, violation.kind());
    }
    try {
        SCHED_INVARIANT(false, "consistency");
        FAIL();
    } catch (const ContractViolation &violation) {
        EXPECT_EQ(ContractKind::Invariant, violation.kind());
    }
}

TEST(Check, UnreachableThrows)
{
    try {
        SCHED_UNREACHABLE("must not get here");
        FAIL();
    } catch (const ContractViolation &violation) {
        EXPECT_EQ(ContractKind::Unreachable, violation.kind());
    }
}

TEST(Check, ViolationIsALogicError)
{
    // Callers that cannot name ContractViolation still catch the
    // standard hierarchy.
    EXPECT_THROW(SCHED_REQUIRE(false, "structured"),
                 std::logic_error);
}

TEST(Check, WhatContainsKindMessageConditionAndLocation)
{
    try {
        SCHED_REQUIRE(1 > 2, "ordering is broken");
        FAIL();
    } catch (const ContractViolation &violation) {
        const std::string what = violation.what();
        EXPECT_NE(std::string::npos, what.find("REQUIRE"));
        EXPECT_NE(std::string::npos, what.find("ordering is broken"));
        EXPECT_NE(std::string::npos, what.find("1 > 2"));
        EXPECT_NE(std::string::npos, what.find("test_check.cc"));
    }
}

TEST(Check, ConditionIsEvaluatedExactlyOnce)
{
    int evaluations = 0;
    SCHED_REQUIRE(++evaluations > 0, "side effect counted");
    EXPECT_EQ(1, evaluations);
}

TEST(Check, KindNamesAreStable)
{
    EXPECT_STREQ("REQUIRE",
                 contractKindName(ContractKind::Require));
    EXPECT_STREQ("ENSURE", contractKindName(ContractKind::Ensure));
    EXPECT_STREQ("INVARIANT",
                 contractKindName(ContractKind::Invariant));
    EXPECT_STREQ("UNREACHABLE",
                 contractKindName(ContractKind::Unreachable));
}

} // anonymous namespace
