// Unit tests for the discrete-event kernel: SimTime arithmetic, event
// ordering and cancellation, run loops, RNG determinism, and the strict
// number parsing of outside input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/parse.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dyncdn::sim {
namespace {

using namespace dyncdn::sim::literals;

TEST(SimTime, FactoryUnitsAgree) {
  EXPECT_EQ(SimTime::seconds(1), SimTime::milliseconds(1000));
  EXPECT_EQ(SimTime::milliseconds(1), SimTime::microseconds(1000));
  EXPECT_EQ(SimTime::microseconds(1), SimTime::nanoseconds(1000));
  EXPECT_EQ((5_ms).ns(), 5'000'000);
}

TEST(SimTime, ArithmeticAndComparison) {
  const SimTime a = 10_ms, b = 4_ms;
  EXPECT_EQ(a + b, 14_ms);
  EXPECT_EQ(a - b, 6_ms);
  EXPECT_EQ(a * 3, 30_ms);
  EXPECT_EQ(a / 2, 5_ms);
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
}

TEST(SimTime, FromSecondsRoundsToNearestNanosecond) {
  EXPECT_EQ(SimTime::from_seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(SimTime::from_milliseconds(0.0000005).ns(), 1);  // 0.5ns -> 1
  EXPECT_EQ(SimTime::from_seconds(0.0).ns(), 0);
}

TEST(SimTime, ConversionsRoundTrip) {
  const SimTime t = SimTime::from_milliseconds(123.456);
  EXPECT_NEAR(t.to_milliseconds(), 123.456, 1e-6);
  EXPECT_NEAR(t.to_seconds(), 0.123456, 1e-9);
}

TEST(SimTime, ScaledAppliesFactor) {
  EXPECT_EQ((100_ms).scaled(0.5), 50_ms);
  EXPECT_EQ((100_ms).scaled(4.0), 400_ms);
}

TEST(SimTime, ToStringPicksUnit) {
  EXPECT_EQ((2_s).to_string(), "2.000s");
  EXPECT_EQ((15_ms).to_string(), "15.000ms");
  EXPECT_EQ((7_us).to_string(), "7.000us");
  EXPECT_EQ((3_ns).to_string(), "3ns");
  EXPECT_EQ(SimTime::infinity().to_string(), "inf");
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30_ms, [&] { order.push_back(3); });
  q.schedule(10_ms, [&] { order.push_back(1); });
  q.schedule(20_ms, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(10_ms, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(10_ms, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelFiredEventReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1_ms, [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.pending_count(), 0u);
}

TEST(EventQueue, CancelInvalidIdIsSafe) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, PendingCountTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1_ms, [] {});
  q.schedule(2_ms, [] {});
  EXPECT_EQ(q.pending_count(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending_count(), 1u);
  q.pop_and_run();
  EXPECT_EQ(q.pending_count(), 0u);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule(10_ms, [] {});
  q.pop_and_run();
  EXPECT_THROW(q.schedule(5_ms, [] {}), std::logic_error);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1_ms, [] {});
  q.schedule(2_ms, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 2_ms);
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator simulator;
  std::vector<SimTime> seen;
  simulator.schedule_in(5_ms, [&] { seen.push_back(simulator.now()); });
  simulator.schedule_in(9_ms, [&] { seen.push_back(simulator.now()); });
  simulator.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 5_ms);
  EXPECT_EQ(seen[1], 9_ms);
  EXPECT_EQ(simulator.now(), 9_ms);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) simulator.schedule_in(1_ms, recurse);
  };
  simulator.schedule_in(1_ms, recurse);
  simulator.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(simulator.now(), 5_ms);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    simulator.schedule_at(SimTime::milliseconds(i), [&] { ++count; });
  }
  simulator.run_until(5_ms);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(simulator.pending_events(), 5u);
  simulator.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockToDeadlineWhenQuiet) {
  Simulator simulator;
  simulator.schedule_at(100_ms, [] {});
  simulator.run_until(50_ms);
  EXPECT_EQ(simulator.now(), 50_ms);
}

TEST(Simulator, RunStepsExecutesExactly) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    simulator.schedule_at(SimTime::milliseconds(i), [&] { ++count; });
  }
  EXPECT_EQ(simulator.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(simulator.run_steps(99), 2u);
}

TEST(EventQueue, RandomScheduleFiresInGlobalTimeOrder) {
  // Property: regardless of insertion order and cancellations, events fire
  // in nondecreasing time, with scheduling order breaking ties.
  EventQueue q;
  RngStream rng(99);
  struct Fired {
    std::int64_t at;
    std::uint64_t seq;
  };
  std::vector<Fired> fired;
  std::vector<EventId> ids;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const std::int64_t at = rng.uniform_int(0, 500);
    ids.push_back(q.schedule(SimTime::milliseconds(at), [&fired, at, i] {
      fired.push_back({at, i});
    }));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (rng.chance(0.33) && q.cancel(ids[i])) ++cancelled;
  }
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired.size(), 3000u - cancelled);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].at, fired[i].at);
    if (fired[i - 1].at == fired[i].at) {
      ASSERT_LT(fired[i - 1].seq, fired[i].seq);
    }
  }
}

TEST(EventQueue, ReservedTicketsFireInTimeSeqOrder) {
  // Property: events filed under tickets from reserve_seq() -- possibly
  // long after the ticket was taken, after pops and cancels -- interleave
  // with plainly scheduled ones exactly by (time, seq). The reference is
  // the ordered set of live (time, seq) pairs; every pop must take its
  // minimum. Deltas span the heap (< 134 ms ahead), the wheel and the
  // overflow list (> ~9.5 h ahead).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EventQueue q;
    RngStream rng(seed);
    using Key = std::pair<std::int64_t, std::uint64_t>;
    std::set<Key> reference;
    std::vector<std::pair<EventId, Key>> live;
    std::vector<std::uint64_t> tickets;  // reserved, not yet filed
    std::vector<Key> fired;
    std::uint64_t next_seq = 1;  // mirrors the queue's counter
    std::int64_t now = 0;
    std::size_t wheeled = 0;

    const auto pick_time = [&] {
      const double r = rng.uniform01();
      const std::int64_t span = r < 0.4    ? 100'000'000         // heap
                                : r < 0.8  ? 5'000'000'000       // wheel
                                : r < 0.97 ? 200'000'000'000     // level 2
                                           : 80'000'000'000'000;  // 22 h
      // Coarse granularity makes same-instant ties common.
      return now + rng.uniform_int(0, span / 1'000'000) * 1'000'000;
    };
    const auto file = [&](std::uint64_t seq, bool reserved) {
      const Key key{pick_time(), seq};
      const auto record = [&fired, key] { fired.push_back(key); };
      const EventId id =
          reserved ? q.schedule_with_seq(SimTime::nanoseconds(key.first), seq,
                                         record)
                   : q.schedule(SimTime::nanoseconds(key.first), record);
      live.emplace_back(id, key);
      reference.insert(key);
    };

    for (int step = 0; step < 3000; ++step) {
      const double action = rng.uniform01();
      if (action < 0.25) {
        file(next_seq++, /*reserved=*/false);
      } else if (action < 0.45) {
        const std::uint64_t ticket = q.reserve_seq();
        ASSERT_EQ(ticket, next_seq++);
        tickets.push_back(ticket);
      } else if (action < 0.65 && !tickets.empty()) {
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(tickets.size()) - 1));
        file(tickets[i], /*reserved=*/true);
        tickets.erase(tickets.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (action < 0.75 && !live.empty()) {
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        if (q.cancel(live[i].first)) reference.erase(live[i].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (!q.empty()) {
        wheeled = std::max(wheeled, q.wheel_entries());
        ASSERT_FALSE(reference.empty());
        const Key expected = *reference.begin();
        ASSERT_EQ(q.next_time().ns(), expected.first);
        const std::size_t before = fired.size();
        now = q.pop_and_run().ns();
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), expected) << "seed " << seed;
        reference.erase(reference.begin());
      }
    }
    while (!q.empty()) {
      ASSERT_FALSE(reference.empty());
      const Key expected = *reference.begin();
      q.pop_and_run();
      ASSERT_EQ(fired.back(), expected) << "seed " << seed;
      reference.erase(reference.begin());
    }
    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(q.scheduled_count(), next_seq - 1);
    EXPECT_GT(wheeled, 0u);
  }
}

TEST(EventQueue, CursorJumpsEmptyBuckets) {
  // Events hours apart: the cursor processes only the buckets that flush
  // or cascade and the overflow laps that hold entries, a few per event,
  // instead of stepping through every 2.1 ms bucket (~38 M for 22 h).
  constexpr std::int64_t kHour = 3'600'000'000'000;
  const std::vector<std::int64_t> times = {
      22 * kHour, 3 * kHour + 7, 22 * kHour + 1, 150'000'000, 9 * kHour,
      40 * kHour};
  EventQueue q;
  std::vector<std::int64_t> fired;
  for (const std::int64_t at : times) {
    q.schedule(SimTime::nanoseconds(at), [&fired, at] { fired.push_back(at); });
  }
  while (!q.empty()) q.pop_and_run();
  std::vector<std::int64_t> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(fired, sorted);
  // At most one step per level per event, plus one per overflow lap
  // (~9.8 h each).
  EXPECT_LE(q.cursor_steps(), 3 * times.size() + 5);
  EXPECT_GT(q.cursor_steps(), 0u);
}

TEST(Rng, SameSeedSameStreamIsDeterministic) {
  RngFactory f1(42), f2(42);
  RngStream a = f1.stream("x");
  RngStream b = f2.stream("x");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, DifferentNamesGiveDifferentStreams) {
  RngFactory f(42);
  RngStream a = f.stream("alpha");
  RngStream b = f.stream("beta");
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DifferentSeedsGiveDifferentStreams) {
  RngStream a = RngFactory(1).stream("x");
  RngStream b = RngFactory(2).stream("x");
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DeriveCreatesIndependentFactory) {
  RngFactory f(7);
  RngFactory d1 = f.derive("rep1");
  RngFactory d2 = f.derive("rep2");
  EXPECT_NE(d1.seed(), d2.seed());
  EXPECT_EQ(f.derive("rep1").seed(), d1.seed());
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  RngStream s = RngFactory(3).stream("u");
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = s.uniform_int(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    saw_lo |= (v == 0);
    saw_hi |= (v == 9);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  RngStream s = RngFactory(4).stream("c");
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(s.chance(0.0));
    EXPECT_TRUE(s.chance(1.0));
  }
}

TEST(Rng, LognormalMedianIsApproximatelyMedian) {
  RngStream s = RngFactory(5).stream("ln");
  std::vector<double> draws;
  for (int i = 0; i < 20000; ++i) draws.push_back(s.lognormal_median(50.0, 0.5));
  std::nth_element(draws.begin(), draws.begin() + 10000, draws.end());
  EXPECT_NEAR(draws[10000], 50.0, 2.0);
}

TEST(Rng, NormalMsClampsAtFloor) {
  RngStream s = RngFactory(6).stream("n");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(s.normal_ms(1.0, 10.0, 0.5), SimTime::from_milliseconds(0.5));
  }
}

TEST(Rng, LazilySeededStreamMatchesEagerEngine) {
  // Each draw helper, from a fresh stream, against the same distribution
  // over an engine seeded at construction.
  constexpr std::uint64_t kSeed = 0x5eed5eed5eedULL;
  using Engine = std::mt19937_64;
  const auto same = [](auto draw, auto reference) {
    RngStream lazy(kSeed);
    Engine eager(kSeed);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(draw(lazy), reference(eager)) << i;
  };
  same([](RngStream& s) { return s.engine()(); },
       [](Engine& e) { return e(); });
  same([](RngStream& s) { return s.uniform01(); },
       [](Engine& e) {
         return std::uniform_real_distribution<double>(0.0, 1.0)(e);
       });
  same([](RngStream& s) { return s.uniform(-3.0, 7.0); },
       [](Engine& e) {
         return std::uniform_real_distribution<double>(-3.0, 7.0)(e);
       });
  same([](RngStream& s) { return s.uniform_int(-5, 1000); },
       [](Engine& e) {
         return std::uniform_int_distribution<std::int64_t>(-5, 1000)(e);
       });
  same([](RngStream& s) { return s.chance(0.3); },
       [](Engine& e) {
         return std::uniform_real_distribution<double>(0.0, 1.0)(e) < 0.3;
       });
  same([](RngStream& s) { return s.normal(10.0, 2.0); },
       [](Engine& e) {
         return std::normal_distribution<double>(10.0, 2.0)(e);
       });
  same([](RngStream& s) { return s.lognormal_median(20.0, 0.5); },
       [](Engine& e) {
         return std::lognormal_distribution<double>(std::log(20.0), 0.5)(e);
       });
  same([](RngStream& s) { return s.exponential(4.0); },
       [](Engine& e) {
         return std::exponential_distribution<double>(1.0 / 4.0)(e);
       });
  same([](RngStream& s) { return s.pareto(2.0, 1.5); },
       [](Engine& e) {
         const double u =
             1.0 - std::uniform_real_distribution<double>(0.0, 1.0)(e);
         return 2.0 / std::pow(u, 1.0 / 1.5);
       });
  same([](RngStream& s) { return s.normal_ms(5.0, 3.0, 1.0).ns(); },
       [](Engine& e) {
         const double v = std::normal_distribution<double>(5.0, 3.0)(e);
         return SimTime::from_milliseconds(v < 1.0 ? 1.0 : v).ns();
       });
  same([](RngStream& s) { return s.lognormal_ms(8.0, 0.4).ns(); },
       [](Engine& e) {
         return SimTime::from_milliseconds(
                    std::lognormal_distribution<double>(std::log(8.0),
                                                        0.4)(e))
             .ns();
       });
}

TEST(Rng, CopyBeforeFirstDrawReplaysTheOriginal) {
  RngStream original = RngFactory(42).stream("copy");
  RngStream copy = original;  // nothing drawn yet: the engine is unseeded
  std::vector<double> a, b;
  for (int i = 0; i < 32; ++i) a.push_back(original.uniform01());
  for (int i = 0; i < 32; ++i) b.push_back(copy.uniform01());
  EXPECT_EQ(a, b);
  RngStream midway = original;  // a seeded engine copies its position
  EXPECT_EQ(midway.uniform01(), original.uniform01());
}

TEST(Parse, UintAcceptsWholeNumbersOnly) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("007"), 7u);
  EXPECT_EQ(parse_uint("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "abc", "4x", "x4", "-1", "+1", " 1", "1 ", "0x10",
                          "1.5", "18446744073709551616"}) {
    EXPECT_FALSE(parse_uint(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Parse, DoubleAcceptsFiniteNonNegativeNumbersOnly) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("100"), 100.0);
  EXPECT_EQ(parse_double("0.25"), 0.25);
  EXPECT_EQ(parse_double(".5"), 0.5);
  EXPECT_EQ(parse_double("2e3"), 2000.0);
  for (const char* bad : {"", "abc", "1.5x", "x1", "-1", "-0", "+1", " 1",
                          "1 ", "1,5", "0x10", "inf", "nan", "1e400", "."}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Parse, EnvUintThrowsOnMalformedValues) {
  constexpr const char* kVar = "DYNCDN_PARSE_TEST_VALUE";
  unsetenv(kVar);
  EXPECT_FALSE(env_uint(kVar).has_value());
  setenv(kVar, "12", 1);
  EXPECT_EQ(env_uint(kVar), 12u);
  for (const char* bad : {"", "abc", "12abc", "-3"}) {
    setenv(kVar, bad, 1);
    try {
      env_uint(kVar);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(kVar), std::string::npos);
    }
  }
  unsetenv(kVar);
}

}  // namespace
}  // namespace dyncdn::sim
