// The simulated network: site registry, FIFO links, traffic statistics,
// fault injection, and the reliability session layer.
//
// Three delivery regimes per directed link:
//   * pristine (no FaultModel attached) — the paper's Section 2
//     assumption, byte-for-byte the original behaviour: reliable FIFO
//     delivery with sampled latency;
//   * faulty + reliability enabled — application messages are wrapped in
//     SessionDatagrams; the session layer (sim/session.h) restores
//     exactly-once FIFO delivery via seq/ack/retransmission, so sites
//     still observe the reliable-FIFO abstraction;
//   * faulty + reliability disabled — raw faulty delivery (drops lost
//     forever, duplicates delivered twice, jitter may reorder), exposing
//     what the protocols do when the paper's channel assumption is
//     violated.
// Site crash/restart is modeled here too: a crashed site neither sends
// nor receives, and loses its session state (its durable state is the
// site's own concern — see DataSource::Restart).

#ifndef SWEEPMV_SIM_NETWORK_H_
#define SWEEPMV_SIM_NETWORK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fingerprint.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "sim/channel.h"
#include "sim/fault_model.h"
#include "sim/latency.h"
#include "sim/message.h"
#include "sim/session.h"
#include "sim/simulator.h"
#include "sim/site.h"

namespace sweepmv {

// Per-class traffic counters. The benches read these to report message
// complexity (Table 1, experiments E1-E3).
struct NetworkStats {
  struct ClassStats {
    int64_t messages = 0;
    int64_t payload_tuples = 0;

    bool operator==(const ClassStats&) const = default;
  };
  std::array<ClassStats, static_cast<size_t>(MessageClass::kNumClasses)>
      by_class;

  // Fault-injection and reliability-layer accounting; all zero on
  // pristine networks.
  struct ReliabilityStats {
    int64_t drops_injected = 0;    // transmissions lost to drop_prob
    int64_t partition_drops = 0;   // transmissions lost to a partition
    int64_t dups_injected = 0;     // wire duplicates created
    int64_t crash_drops = 0;       // arrived at (or sent by) a crashed site
    int64_t retransmissions = 0;   // datagrams re-sent by the session layer
    int64_t dups_suppressed = 0;   // duplicate datagrams discarded on receive
    int64_t acks_sent = 0;         // pure-ack datagrams
    int64_t messages_abandoned = 0;  // unacked payloads past the retry budget

    bool operator==(const ReliabilityStats&) const = default;
  } reliability;

  int64_t TotalMessages() const;
  int64_t TotalPayload() const;
  const ClassStats& Of(MessageClass c) const {
    return by_class[static_cast<size_t>(c)];
  }

  std::string ToDisplayString() const;

  bool operator==(const NetworkStats&) const = default;
};

// One observed transmission, reported to the network tap at send time
// (the arrival instant is already determined then — delivery is
// deterministic). On faulty links every scheduled transmission (including
// retransmissions, duplicates and acks) is tapped; dropped transmissions
// are not.
struct TapEvent {
  SimTime send_time = 0;
  SimTime arrival_time = 0;
  int from = -1;
  int to = -1;
  // Borrowed view of the in-flight message; valid only for the duration
  // of the tap callback.
  const Message* message = nullptr;
};

class Network {
 public:
  // All links share `latency` unless overridden per-link; `seed` drives
  // the jitter sampling deterministically (and, independently, the fault
  // sampling).
  Network(Simulator* sim, LatencyModel latency, uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers a site under `id`. The site must outlive the network runs.
  void RegisterSite(int id, Site* site);

  // Sends `msg` from site `from` to site `to`: samples a FIFO-respecting
  // arrival time and schedules the delivery. Counts traffic. On links
  // with a FaultModel, routes through the fault/session machinery.
  void Send(int from, int to, Message msg);

  // Overrides the latency model of the directed link from->to.
  void SetLinkLatency(int from, int to, LatencyModel latency);

  // --- Fault injection & reliability -----------------------------------

  // Attaches `model` to every link, existing and future (per-link
  // overrides via SetLinkFaults win). Marks those links "not assumed
  // reliable".
  void SetDefaultFaults(const FaultModel& model);
  // Attaches `model` to the directed link from->to only.
  void SetLinkFaults(int from, int to, const FaultModel& model);

  // Turns the session layer on/off for faulty links (default on). With it
  // off, raw faulty delivery reaches the sites.
  void EnableReliability(bool on) { reliability_ = on; }
  bool reliability_enabled() const { return reliability_; }

  // Session-layer tuning; applies to sessions created afterwards.
  void SetSessionOptions(const SessionOptions& opts) {
    session_options_ = opts;
  }

  // Site `id` crashes: it no longer sends or receives, in-flight
  // deliveries to it are lost, and its retransmission timers stop. Its
  // session peers keep their own state.
  void CrashSite(int id);
  // The site returns under a new incarnation: its outbound sessions
  // restart from sequence zero with a bumped epoch (receivers detect the
  // epoch change and resync), and its inbound receiver state is blank
  // (healed by the base_seq rule — see sim/session.h).
  void RestartSite(int id);
  bool IsCrashed(int id) const { return crashed_.count(id) != 0; }

  // --- Controlled fault choice points -----------------------------------

  // Arms one silent drop: the next query-class message (request or
  // answer) handed to Send is discarded instead of scheduled. This lets
  // the schedule-space explorer make message loss an explorable choice
  // point on pristine links, without attaching a FaultModel (which would
  // break snapshotting). Query traffic only: the warehouse's timeout
  // re-issue heals a lost query or answer, while a lost update
  // notification is unrecoverable without the session layer.
  void ArmControlledDrop();
  int64_t controlled_drops_armed() const { return controlled_drops_armed_; }

  // Eagerly creates every directed link among `site_ids`. The controlled
  // system calls this at construction so LinkFor's lazy rng_.Fork() never
  // fires inside an explored step — link creation would otherwise be a
  // hidden first-send write to rng_ that the static effect table does not
  // (and should not) charge to the sending handler.
  void PrecreateLinks(const std::vector<int>& site_ids);

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

  // Observer invoked for every scheduled transmission (tracing /
  // visualization).
  using Tap = std::function<void(const TapEvent&)>;
  void SetTap(Tap tap) { tap_ = std::move(tap); }

  Simulator* simulator() { return sim_; }

  // --- Fingerprint (pristine links only) --------------------------------

  // Absorbs the network's VisitState member set into `h` in keyed link
  // order. Identical in exact and canonical mode: traffic counters and
  // per-link channel state are order-independent facts about the set of
  // sends performed, so they canonicalize as-is.
  void DescribeState(StateHasher& h) const;

 private:
  // Everything the network tracks for one directed link.
  struct LinkState {
    LinkState(Channel channel_in, Rng fault_rng_in)
        : channel(std::move(channel_in)), fault_rng(fault_rng_in) {}
    Channel channel;
    std::optional<FaultModel> faults;
    // True when SetLinkFaults pinned this link's model explicitly, so a
    // later SetDefaultFaults does not overwrite it.
    bool explicit_faults = false;
    Rng fault_rng;
    // Sender session state for traffic flowing from .first to .second of
    // the link key; receiver state for the same direction (owned by the
    // destination site, conceptually).
    SessionSender sender;
    SessionReceiver receiver;
    bool session_configured = false;
    bool timer_armed = false;
    int64_t timer_gen = 0;
  };

  LinkState& LinkFor(int from, int to);

  // links_ saves only each link's channel state (FIFO clamp, message
  // counter, jitter RNG), which is all a pristine link carries; Save
  // CHECKs the link really is pristine. Restore rewinds the surviving
  // channels and erases links created after the save point, so replayed
  // sends re-derive identical channel RNGs and arrival times. Diff
  // reports each changed link as links_ at its *sending* site: links_ is
  // keyed (from, to) and only Send() mutates a channel, so the static
  // effect table binds links_ atoms to the sender.
  using Links = std::map<std::pair<int, int>, LinkState>;
  using Channels = std::map<std::pair<int, int>, Channel>;
  struct LinksHook {
    Channels Save(const Links& links) const;
    void Restore(Links& links, const Channels& saved) const;
    void Diff(const Links& links, const Channels& saved, EffectAtom atom,
              std::vector<EffectAtom>* out) const;
  };

  // The declared state (common/snapshot.h): traffic stats, the latency
  // and fault RNG roots, armed drops and every link's channel. Only legal
  // while no link carries a fault model or live session state, which is
  // exactly the explorer's regime (controlled runs are pristine by
  // construction).
  friend class StateVisitor;
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE_CLASS(v, Network);
    SWEEP_STATE(v, stats_);
    SWEEP_STATE(v, rng_);
    SWEEP_STATE(v, fault_root_);
    SWEEP_STATE(v, controlled_drops_armed_);
    SWEEP_STATE_HOOK(v, links_, LinksHook{});
  }

  void ConfigureSessionIfNeeded(LinkState& link);
  SessionOptions ResolvedSessionOptions(const LinkState& link) const;

  // Legacy pristine path: reliable FIFO, moves the payload.
  void SendDirect(LinkState& link, int from, int to, Message msg);
  // Applies the link's fault model and schedules 0..2 deliveries.
  void TransmitFaulty(LinkState& link, int from, int to,
                      std::shared_ptr<const Message> msg);
  // Wraps seq/payload in a datagram and transmits it over the faulty wire.
  void TransmitDatagram(LinkState& link, int from, int to, int64_t seq,
                        std::shared_ptr<const Message> payload);
  void ScheduleFaultyDelivery(LinkState& link, int from, int to,
                              std::shared_ptr<const Message> msg,
                              SimTime extra_delay);
  // Delivery instant: unwraps datagrams, runs the session receiver, hands
  // application messages to the destination site.
  void DeliverNow(int from, int to, std::shared_ptr<const Message> msg);
  void HandleDatagram(int from, int to, const SessionDatagram& dgram);
  void SendAck(int from, int to, int64_t ack_epoch, int64_t cum_ack);
  void ArmRetransmitTimer(LinkState& link, int from, int to);
  void OnRetransmitTimer(int from, int to, int64_t gen);

  SWEEP_SNAPSHOT_EXEMPT(
      "wiring to the simulator, which snapshots its own clock and queue")
  Simulator* sim_;
  SWEEP_SNAPSHOT_EXEMPT(
      "latency configuration, fixed once topology is wired; controlled "
      "runs never mutate it")
  LatencyModel default_latency_;
  Rng rng_;
  // Independent root so attaching fault models never perturbs the latency
  // streams of existing runs.
  Rng fault_root_;
  SWEEP_SNAPSHOT_EXEMPT(
      "a default fault model reaches every link, and the links_ hook "
      "CHECKs each is pristine; controlled exploration predates any "
      "SetDefaultFaults call")
  std::optional<FaultModel> default_faults_;
  SWEEP_SNAPSHOT_EXEMPT(
      "session-layer on/off switch, configuration fixed before the run")
  bool reliability_ = true;
  SWEEP_SNAPSHOT_EXEMPT(
      "session-layer tuning knobs, configuration fixed before the run")
  SessionOptions session_options_;
  SWEEP_SNAPSHOT_EXEMPT(
      "site registry is topology, not state; every registered site "
      "snapshots itself through ControlledSystem")
  std::map<int, Site*> sites_;
  SWEEP_SNAPSHOT_EXEMPT(
      "crash injection is fault machinery the controlled harness never "
      "drives — the same pristine-links precondition the links_ hook "
      "CHECKs")
  std::set<int> crashed_;
  std::map<std::pair<int, int>, LinkState> links_;
  NetworkStats stats_;
  // Pending one-shot drops armed by ArmControlledDrop.
  int64_t controlled_drops_armed_ = 0;
  SWEEP_SNAPSHOT_EXEMPT(
      "observer hook owned by the harness; outlives and never depends on "
      "the explored prefix")
  Tap tap_;
};

}  // namespace sweepmv

#endif  // SWEEPMV_SIM_NETWORK_H_
