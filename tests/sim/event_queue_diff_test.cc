// Differential tests pinning the calendar EventQueue to the reference
// binary heap (reference_event_queue.h): both must produce the identical
// (time, seq) pop sequence for any schedule. The heap is the executable
// spec — a std::push_heap/pop_heap over the same comparator the
// pre-calendar simulator used — so agreement here is what licenses the
// calendar queue to sit under every seeded regression pin.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine/event_queue.h"
#include "reference_event_queue.h"
#include "util/rng.h"

namespace rcbr::sim::engine {
namespace {

struct PoppedRecord {
  double time;
  std::uint64_t seq;
  std::uint32_t kind;
  std::uint64_t a;

  friend bool operator==(const PoppedRecord&, const PoppedRecord&) = default;
};

// One schedule step: fire `pops` pops, then post `time` (payload `tag`).
struct ScheduleStep {
  int pops = 0;
  double time = 0;
  std::uint64_t tag = 0;
};

// Payload kinds of the replay. A kStep record is a schedule step's post.
// With `same_instant_posts`, popping a kStep record whose tag is a
// multiple of 3 posts a kPass record at the popped instant — the way
// RunSimulation posts kEvUpgradePass at now() from inside a departure —
// and popping a kPass posts one kStep a short hold later.
constexpr std::uint32_t kStep = 1;
constexpr std::uint32_t kPass = 2;

EventPayload Payload(std::uint32_t kind, std::uint64_t tag) {
  EventPayload payload;
  payload.kind = kind;
  payload.a = tag;
  return payload;
}

// Runs the same interleaved post/pop schedule on one queue and returns
// everything popped (including the final drain).
template <typename Queue>
std::vector<PoppedRecord> Replay(const std::vector<ScheduleStep>& steps,
                                 bool reserve_hint = false,
                                 bool same_instant_posts = false) {
  Queue queue;
  if (reserve_hint) queue.Reserve(steps.size());
  std::vector<PoppedRecord> popped;
  popped.reserve(steps.size());
  std::uint64_t next_tag = steps.size();
  auto pop_one = [&] {
    const double peek = queue.next_time();
    const ScheduledEvent event = queue.Pop();
    EXPECT_EQ(event.time, peek);
    popped.push_back(
        {event.time, event.seq, event.payload.kind, event.payload.a});
    if (!same_instant_posts) return;
    if (event.payload.kind == kStep && event.payload.a % 3 == 0) {
      queue.Post(event.time, Payload(kPass, next_tag++));
    } else if (event.payload.kind == kPass) {
      // Tagged 1 mod 3, so follow-ups never chain into more passes.
      queue.Post(event.time + 0.25, Payload(kStep, 3 * next_tag++ + 1));
    }
  };
  for (const ScheduleStep& step : steps) {
    for (int k = 0; k < step.pops && !queue.empty(); ++k) pop_one();
    queue.Post(step.time, Payload(kStep, step.tag));
  }
  while (!queue.empty()) pop_one();
  return popped;
}

void ExpectMatchesReference(const std::vector<ScheduleStep>& steps,
                            const std::string& label,
                            bool same_instant_posts = false) {
  const auto calendar =
      Replay<EventQueue>(steps, /*reserve_hint=*/false, same_instant_posts);
  const auto heap = Replay<ReferenceEventQueue>(
      steps, /*reserve_hint=*/false, same_instant_posts);
  ASSERT_EQ(calendar.size(), heap.size()) << label;
  for (std::size_t i = 0; i < calendar.size(); ++i) {
    ASSERT_EQ(calendar[i], heap[i]) << label << ": pop " << i;
  }
}

TEST(EventQueueDifferential, RandomizedHoldModelSchedules) {
  // Simulator-shaped workloads: a running clock, exponential-ish holds,
  // occasional pop bursts. Several seeds, a few thousand events each.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<ScheduleStep> steps;
    double now = 0;
    for (int i = 0; i < 4000; ++i) {
      const int pops = rng.Uniform(0.0, 1.0) < 0.4
                           ? static_cast<int>(rng.Uniform(1.0, 4.0))
                           : 0;
      // Mix horizons: near events, far events, and a heavy same-time mode.
      double when;
      const double mode = rng.Uniform(0.0, 1.0);
      if (mode < 0.2) {
        when = now;  // exactly the current instant
      } else if (mode < 0.8) {
        when = now + rng.Uniform(0.0, 2.0);
      } else {
        when = now + rng.Uniform(0.0, 500.0);
      }
      steps.push_back({pops, when, static_cast<std::uint64_t>(i)});
      now += rng.Uniform(0.0, 0.05);
    }
    ExpectMatchesReference(steps, "seed " + std::to_string(seed));
  }
}

TEST(EventQueueDifferential, SameTimeBurstsFireInScheduleOrder) {
  // Large bursts at identical instants: the (time, seq) tie-break is the
  // whole story, and the calendar must resolve it as the reference does.
  std::vector<ScheduleStep> steps;
  std::uint64_t tag = 0;
  for (double t : {1.0, 1.0, 5.0, 2.5, 2.5, 2.5}) {
    for (int i = 0; i < 200; ++i) steps.push_back({0, t, tag++});
  }
  steps.push_back({300, 0.75, tag++});  // drain some, then more ties
  for (int i = 0; i < 100; ++i) steps.push_back({0, 2.5, tag++});
  ExpectMatchesReference(steps, "same-time bursts");

  // Verify explicitly (not just differentially) that a same-time burst
  // pops in schedule order on the calendar queue.
  EventQueue queue;
  for (std::uint64_t i = 0; i < 500; ++i) {
    EventPayload payload;
    payload.kind = 1;
    payload.a = i;
    queue.Post(7.0, payload);
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(queue.Pop().payload.a, i);
  }
}

template <typename Queue>
void ExpectCeilingOrder() {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Queue queue;
  queue.ResetSequenceForTest(kMax - 4);
  for (std::uint64_t i = 0; i < 4; ++i) queue.Post(1.0, Payload(kStep, i));
  EXPECT_EQ(queue.next_sequence(), kMax);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const ScheduledEvent event = queue.Pop();
    EXPECT_EQ(event.payload.a, i);
    EXPECT_EQ(event.seq, kMax - 4 + i);
  }
}

TEST(EventQueueDifferential, SequenceCounterCeiling) {
  // Same-time ordering must hold right up to the last representable
  // sequence numbers (the counter itself cannot wrap mid-run: Post would
  // need ~1.8e19 schedules).
  ExpectCeilingOrder<EventQueue>();
  ExpectCeilingOrder<ReferenceEventQueue>();
}

TEST(EventQueueDifferential, ReserveIsOrderNeutral) {
  Rng rng(77);
  std::vector<ScheduleStep> steps;
  double now = 0;
  for (int i = 0; i < 2000; ++i) {
    steps.push_back({i % 3 == 0 ? 1 : 0, now + rng.Uniform(0.0, 10.0),
                     static_cast<std::uint64_t>(i)});
    now += 0.01;
  }
  EXPECT_EQ(Replay<EventQueue>(steps, /*reserve_hint=*/false),
            Replay<EventQueue>(steps, /*reserve_hint=*/true));
  EXPECT_EQ(Replay<ReferenceEventQueue>(steps, /*reserve_hint=*/false),
            Replay<ReferenceEventQueue>(steps, /*reserve_hint=*/true));
}

TEST(EventQueueDifferential, SameInstantPostsWhilePopping) {
  // The engine's own shape: a handler posts at the instant it fires (an
  // upgrade pass at now()), so the new record joins a time the calendar
  // has already settled into its run, behind same-time records scheduled
  // earlier. Several seeds of a hold-model schedule with coarse times, so
  // same-instant collisions are frequent.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 100);
    std::vector<ScheduleStep> steps;
    double now = 0;
    for (int i = 0; i < 3000; ++i) {
      const int pops = rng.Uniform(0.0, 1.0) < 0.5 ? 2 : 0;
      const double when = now + std::floor(rng.Uniform(0.0, 8.0)) * 0.25;
      steps.push_back({pops, when, static_cast<std::uint64_t>(i)});
      now += 0.01;
    }
    ExpectMatchesReference(steps, "seed " + std::to_string(seed),
                           /*same_instant_posts=*/true);
  }
}

TEST(EventQueueDifferential, BackwardInTimePostsStillOrder) {
  // The engine never schedules into the past, but the queue's contract is
  // pure (time, seq) order regardless; exercise posts below the calendar's
  // settled run limit.
  std::vector<ScheduleStep> steps;
  std::uint64_t tag = 0;
  for (int i = 0; i < 50; ++i) steps.push_back({0, 100.0 + i, tag++});
  steps.push_back({10, 3.0, tag++});   // force the run to settle high...
  steps.push_back({0, 1.0, tag++});    // ...then post below it
  steps.push_back({0, 2.0, tag++});
  steps.push_back({2, 0.5, tag++});
  ExpectMatchesReference(steps, "backward posts");
}

}  // namespace
}  // namespace rcbr::sim::engine
