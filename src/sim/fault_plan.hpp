#pragma once

#include <cstdint>
#include <vector>

namespace hybrid::sim {

struct Message;

/// A node is down during rounds [fromRound, toRound): it neither processes
/// its mailbox nor runs onRoundEnd, and messages addressed to it are lost.
struct CrashInterval {
  int node = -1;
  int fromRound = 0;
  int toRound = 0;
};

/// The long-range channel is unavailable during rounds [fromRound,
/// toRound): every long-range message due for delivery then is lost.
struct Blackout {
  int fromRound = 0;
  int toRound = 0;
};

/// Knobs of the deterministic fault model. All probabilities are per
/// message; every decision is a pure function of (seed, delivery round,
/// stream position), where the simulator's stream position is the sender
/// and its send index in its round. The same seed always reproduces the
/// same fault schedule, at any thread count — failures are bisectable.
struct FaultConfig {
  std::uint64_t seed = 0;
  double adHocDrop = 0.0;       ///< P(lose an ad hoc message).
  double adHocDuplicate = 0.0;  ///< P(deliver an ad hoc message twice).
  double adHocDelay = 0.0;      ///< P(defer an ad hoc message 1..maxDelayRounds).
  double longRangeDrop = 0.0;   ///< P(lose a long-range message).
  int maxDelayRounds = 3;
  std::vector<CrashInterval> crashes;
  std::vector<Blackout> blackouts;
};

/// What the fault layer does with one message at its delivery round.
enum class FaultAction { Deliver, Drop, Duplicate, Delay };

/// Seeded, stateless fault schedule. The default-constructed plan is
/// inactive: the simulator decides no fates at all, so a plan with all
/// rates zero and no crashes/blackouts is bit-identical to no plan.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(FaultConfig config);

  const FaultConfig& config() const { return config_; }

  /// True when any knob can affect a run (rates, crashes or blackouts).
  bool active() const { return active_; }

  bool crashed(int node, int round) const;
  bool blackedOut(int round) const;

  /// Decides the fate of the message at stream position `index` that is
  /// due in `round`. The simulator passes (sender << 32) | the sender's
  /// send index in its round, on the sender's worker;
  /// serve::FaultyUpdateStream passes its batch index. Crash and blackout
  /// losses are handled by the caller before this is consulted. On Delay,
  /// `*delayRounds` gets the extra rounds (>= 1).
  FaultAction decide(int round, std::size_t index, const Message& m,
                     int* delayRounds) const;

 private:
  FaultConfig config_;
  bool active_ = false;
};

}  // namespace hybrid::sim
