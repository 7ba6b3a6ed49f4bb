// Session-centric channel serving: the ChannelHub server.
//
// The paper's workload is one pairwise payment channel between a mote and
// a gateway; the ROADMAP north-star is a channel *server* handling
// thousands to millions of endpoints. This header is the session-centric
// redesign of the channel layer's public API:
//
//   * `ChannelSession` — the per-channel state machine (local contract,
//     hash-linked side-chain log, signing/validation rules) extracted from
//     the old endpoint class so one process can own thousands of them
//     without a heavy Vm per channel.
//   * `OpenRequest` / `PaymentUpdate` / `CloseRequest` → `HubResponse` —
//     the explicit wire surface. Endpoints interact with a hub purely
//     through these serialized SignedState exchanges.
//   * `ChannelHub` — the server: a worker pool, a bounded Vm set, a table
//     of sessions keyed by channel id, and one FIFO mailbox per channel
//     with queued work. Requests for distinct channels execute
//     concurrently; requests for one channel are served in submit order,
//     so results are deterministic (bit-identical logs) at any worker
//     count. A lone request on an idle hub is served on the thread that
//     brings it, with no hand-off to the pool.
//
// The device-side peripherals (`SensorBank`, `DeviceHost`) live here too:
// a hub session runs the same template bytecode against the same host
// shape as a mote-side endpoint, which is what makes the serial endpoint
// exchange and the hub exchange byte-for-byte comparable.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "channel/state.hpp"
#include "channel/template_bytecode.hpp"
#include "evm/host.hpp"
#include "evm/vm.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_annotations.hpp"
#include "runtime/thread_pool.hpp"

namespace tinyevm::channel {

/// In-memory sensor/actuator bank standing in for the mote's peripherals.
/// Device ids map to current readings; actuation records the last command.
/// Actuator registration is separate from readings, so a hub-side session
/// can drive an actuator that never produced a reading.
class SensorBank {
 public:
  void set_reading(std::uint32_t device, const U256& value) {
    readings_[device] = value;
  }
  [[nodiscard]] std::optional<U256> read(std::uint32_t device) const {
    const auto it = readings_.find(device);
    if (it == readings_.end()) return std::nullopt;
    return it->second;
  }
  /// Declares `device` actuatable. Devices with a reading are implicitly
  /// actuatable too (a sensor that also accepts commands).
  void register_actuator(std::uint32_t device) { actuators_.insert(device); }
  bool actuate(std::uint32_t device, const U256& value) {
    if (!actuators_.contains(device) && !readings_.contains(device)) {
      return false;  // unknown device: the 0x0c opcode must abort
    }
    actuations_[device] = value;
    return true;
  }
  [[nodiscard]] std::optional<U256> last_actuation(std::uint32_t device) const {
    const auto it = actuations_.find(device);
    if (it == actuations_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::map<std::uint32_t, U256> readings_;
  std::map<std::uint32_t, U256> actuations_;
  std::set<std::uint32_t> actuators_;
};

/// Host wiring a local TinyEVM to per-contract TinyStorage and the mote's
/// SensorBank. CREATE deploys into the device-local contract table.
class DeviceHost : public evm::Host {
 public:
  explicit DeviceHost(SensorBank& sensors, evm::VmConfig config)
      : sensors_(sensors), config_(config) {}

  U256 sload(const evm::Address& addr, const U256& key) override;
  bool sstore(const evm::Address& addr, const U256& key,
              const U256& value) override;
  U256 balance(const evm::Address&) override { return U256{}; }
  evm::Bytes code_at(const evm::Address& addr) override;
  evm::BlockInfo block_info() override { return {}; }
  Hash256 block_hash(std::uint64_t) override { return {}; }
  evm::CallResult call(const evm::CallRequest& req) override;
  evm::CreateResult create(const evm::CreateRequest& req) override;
  void emit_log(evm::LogEntry entry) override {
    logs_.push_back(std::move(entry));
  }
  void self_destruct(const evm::Address& addr, const evm::Address&) override;
  std::optional<U256> sensor_access(const evm::SensorRequest& req) override;

  [[nodiscard]] const std::vector<evm::LogEntry>& logs() const {
    return logs_;
  }
  [[nodiscard]] const evm::TinyStorage* storage_of(
      const evm::Address& addr) const;
  [[nodiscard]] std::size_t contract_count() const {
    return contracts_.size();
  }

 private:
  SensorBank& sensors_;
  evm::VmConfig config_;
  std::map<evm::Address, evm::Bytes> contracts_;
  /// keccak256 of each installed runtime, computed once at CREATE so
  /// repeat calls skip rehashing in the EVM's translation cache.
  std::map<evm::Address, Hash256> code_hashes_;
  std::map<evm::Address, evm::TinyStorage> storage_;
  std::vector<evm::LogEntry> logs_;
  std::uint64_t next_contract_ = 1;
};

/// Aggregate statistics for one session/endpoint — consumed by the
/// energy/latency benchmarks (Table IV, Figure 5) and the hub counters.
struct EndpointStats {
  std::uint64_t vm_cycles = 0;       ///< MCU cycles in the interpreter
  std::uint64_t signatures = 0;      ///< ECDSA signs performed
  std::uint64_t verifications = 0;   ///< signature recoveries performed
  std::uint64_t states_signed = 0;
};

/// How the hub answered a request (HubResponse::status).
enum class HubStatus : std::uint8_t {
  Ok,
  UnknownChannel,    ///< no session under this channel id
  DuplicateChannel,  ///< open for a channel id already served
  ChannelClosed,     ///< payment/close after the session closed
  VmFailure,         ///< template execution failed on the hub side
  BadState,          ///< proposal refused by channel::step (replay,
                     ///< regression, broken link, other channel)
  BadSignature,      ///< the proposal's sender signature does not recover
  Busy,              ///< overload shed: hub shutting down, or the socket
                     ///< front-end's per-connection budget was exceeded —
                     ///< retry after backoff
};

[[nodiscard]] std::string_view to_string(HubStatus s);

/// One side of one payment channel: the local contract instance, the
/// hash-linked side-chain log, and the signing/validation state machine —
/// everything *except* the interpreter and the private key, which the
/// owner (a ChannelEndpoint with its own Vm, or a ChannelHub handing out
/// worker Vms) supplies per call. Not thread-safe; the hub serializes
/// access per session.
class ChannelSession {
 public:
  ChannelSession(const Hash256& onchain_root, const evm::VmConfig& config)
      : config_(config), host_(sensors_, config_), log_(onchain_root) {}

  // The host keeps a reference to this session's SensorBank; pinning the
  // object keeps that wiring trivially valid (the hub stores sessions
  // behind unique_ptr).
  ChannelSession(const ChannelSession&) = delete;
  ChannelSession& operator=(const ChannelSession&) = delete;

  [[nodiscard]] SensorBank& sensors() { return sensors_; }
  [[nodiscard]] const SideChainLog& log() const { return log_; }
  [[nodiscard]] const EndpointStats& stats() const { return stats_; }
  [[nodiscard]] const DeviceHost& host() const { return host_; }
  [[nodiscard]] const U256& channel_id() const { return channel_id_; }
  /// True between a successful open() and close().
  [[nodiscard]] bool is_open() const { return contract_.has_value(); }

  /// Executes the template bytecode locally to open the channel (the
  /// constructor samples `sensor_device`). Returns the deployed contract
  /// address; nullopt when the VM run fails.
  std::optional<evm::Address> open(evm::Vm& vm, const U256& channel_id,
                                   const U256& rate,
                                   std::uint32_t sensor_device);

  /// Payer side: run pay(units) on the local contract, then build and
  /// sign the next channel state. The peer countersigns.
  std::optional<SignedState> make_payment(evm::Vm& vm, const PrivateKey& key,
                                          const U256& units);

  /// This channel's head in the local log — what channel::step checks a
  /// proposed next state against.
  [[nodiscard]] Head head() const { return log_.head_of(channel_id_); }

  /// Countersigns a peer-proposed state when channel::step accepts it
  /// against head() (same channel, extends the log head, advances the
  /// sequence, never pays less); nullopt otherwise. Recovers nothing.
  std::optional<Signature> countersign(const ChannelState& state,
                                       const PrivateKey& key);

  /// Hub side of one payment round, in the order that keeps the hub from
  /// signing what it has not checked: channel::step against head()
  /// (BadState), one recover of the sender's signature (BadSignature),
  /// then the countersignature and the log append. Sets
  /// `proposal.receiver_sig` on Ok; the hub never recovers its own
  /// fresh signature.
  HubStatus countersign_payment(SignedState& proposal, const PrivateKey& key);

  /// Records a fully-signed state into the local side-chain log after
  /// recovering both signatures.
  bool accept(const SignedState& signed_state);

  /// Runs close() on the local contract and returns the final state to be
  /// submitted on-chain.
  std::optional<SignedState> close(evm::Vm& vm, const PrivateKey& key);

  /// The value currently stored in the local contract at `slot`.
  [[nodiscard]] U256 stored(std::uint8_t slot) const;

 private:
  std::optional<U256> run_contract(evm::Vm& vm, const evm::Bytes& calldata);
  ChannelState next_state(const U256& paid_total, std::uint64_t seq) const;

  evm::VmConfig config_;
  SensorBank sensors_;
  DeviceHost host_;
  SideChainLog log_;
  EndpointStats stats_;

  U256 channel_id_;
  std::uint32_t sensor_device_ = 0;
  std::optional<evm::Address> contract_;
  evm::Bytes runtime_code_;   ///< installed by the constructor run
  Hash256 runtime_code_hash_{};  ///< translation-cache key, hashed once
};

// ---------------------------------------------------------------------------
// Wire surface
// ---------------------------------------------------------------------------

/// Open a channel: the hub instantiates its side of the template with the
/// negotiated rate, sampling `sensor_device` in the constructor.
struct OpenRequest {
  U256 channel_id;
  U256 rate;
  std::uint32_t sensor_device = 0;

  friend bool operator==(const OpenRequest& a,
                         const OpenRequest& b) = default;
};

/// One payment round: the endpoint's half-signed next channel state. The
/// hub checks it against the session log, recovers the sender signature,
/// then countersigns, records it, and returns the fully-signed state.
struct PaymentUpdate {
  U256 channel_id;
  SignedState proposal;  ///< sender_sig set; receiver_sig empty

  friend bool operator==(const PaymentUpdate& a,
                         const PaymentUpdate& b) = default;
};

/// Close the channel: the hub runs close() on its contract and returns its
/// signed final state.
struct CloseRequest {
  U256 channel_id;

  friend bool operator==(const CloseRequest& a,
                         const CloseRequest& b) = default;
};

using HubRequest = std::variant<OpenRequest, PaymentUpdate, CloseRequest>;

/// Which request a HubResponse answers — explicit so endpoints never have
/// to infer the kind from the payload shape.
enum class HubResponseKind : std::uint8_t { Open, Payment, Close };

struct HubResponse {
  HubStatus status = HubStatus::Ok;
  HubResponseKind kind = HubResponseKind::Open;
  U256 channel_id;
  /// OpenRequest: the hub-side contract address.
  std::optional<evm::Address> contract;
  /// PaymentUpdate: the fully-signed state (both signatures).
  /// CloseRequest: the hub's final state (hub signature only).
  std::optional<SignedState> state;
  /// Time from submit() to the moment a worker started on the request —
  /// waiting in its channel's mailbox and in the pool queue behind other
  /// channels — microseconds (bench telemetry; not part of the
  /// deterministic payload).
  std::uint32_t queue_us = 0;
  /// Worker service time for this request — dispatch start to response,
  /// excluding queue_us — microseconds (bench telemetry; not part of the
  /// deterministic payload).
  std::uint32_t service_us = 0;

  [[nodiscard]] bool ok() const { return status == HubStatus::Ok; }
};

/// The `Busy` answer to `request`, built without a hub: overload shedding
/// and shutdown, with zero queue/service time.
[[nodiscard]] HubResponse busy_response(const HubRequest& request);

// ---------------------------------------------------------------------------
// The hub server
// ---------------------------------------------------------------------------

/// A channel server: one identity (key), many concurrent sessions.
///
/// Requests enter through `submit`, which appends each to its channel's
/// FIFO mailbox. A mailbox with work is scheduled on the worker pool at
/// most once at a time: the worker that picks it up serves up to
/// `Config::batch_max` of its requests in order, answering each as it
/// finishes, then re-queues the mailbox at the pool's tail if work is
/// left. `try_serve_here` is the one other way in: when no mailbox is
/// queued or running, it serves a lone request on the calling thread,
/// which spares the idle hub a worker wake-up. `handle` tries that first;
/// `handle_batch` is submit-and-wait. Each pick-up leases one Vm from a
/// bounded set of `workers` + 1 (the pool plus the one inline run the
/// idle rule allows), so a hub serving 10k sessions still owns a handful
/// of interpreters; translations are shared through the (sharded)
/// CodeCache.
class ChannelHub {
 public:
  struct Config {
    /// Worker threads and leased Vms; 0 = ThreadPool::hardware_threads().
    std::size_t workers = 0;
    evm::VmConfig vm_config = evm::VmConfig::tiny();
    /// Translation cache shared by every worker Vm; null = the process
    /// default (CodeCache::shared_default()).
    std::shared_ptr<evm::CodeCache> code_cache;
    /// Most requests one worker pick-up serves from a channel's mailbox
    /// before the mailbox goes back to the pool's tail; 0 makes the ctor
    /// throw.
    std::size_t batch_max = 256;
  };

  /// Hub-wide counters, aggregated on demand.
  struct Stats {
    std::uint64_t opens = 0;      ///< sessions opened successfully
    std::uint64_t payments = 0;   ///< payment updates applied
    std::uint64_t closes = 0;     ///< sessions closed
    std::uint64_t rejected = 0;   ///< requests answered with a non-Ok status
    std::uint64_t signatures = 0;
    std::uint64_t verifications = 0;
    std::uint64_t vm_cycles = 0;
    std::size_t sessions = 0;       ///< table size (open + closed)
    std::size_t open_sessions = 0;
  };

  /// Receives one request's response on the thread that served it: a
  /// worker, or the submitting thread when `try_serve_here` found the hub
  /// idle or when the hub is shutting down.
  using Reply = std::function<void(HubResponse)>;

  ChannelHub(std::string name, const PrivateKey& key,
             const Hash256& onchain_root);
  ChannelHub(std::string name, const PrivateKey& key,
             const Hash256& onchain_root, Config config);
  /// Blocks until every submitted request's reply has returned, so
  /// destruction never races the session table a worker is walking;
  /// requests submitted after teardown begins are answered `Busy`.
  ~ChannelHub();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Address address() const { return key_.address(); }
  [[nodiscard]] std::size_t worker_count() const {
    return pool_.thread_count();
  }
  [[nodiscard]] const std::shared_ptr<evm::CodeCache>& code_cache() const {
    return cache_;
  }

  /// Default sensor readings / actuator registrations copied into every
  /// new session's SensorBank before its constructor runs. Install these
  /// before serving opens.
  void set_sensor_default(std::uint32_t device, const U256& value);
  void register_actuator_default(std::uint32_t device);

  /// Queues `request` on its channel's mailbox and returns at once.
  /// Thread-safe. `reply` runs exactly once; requests for one channel are
  /// served, and replied to, in submit order.
  void submit(HubRequest request, Reply reply);

  /// Serves `request` on the calling thread and calls `reply` before
  /// returning true, when the hub is idle: no mailbox queued or running.
  /// The response's queue_us is 0. Requests submitted for the channel
  /// meanwhile go to the pool once `reply` returns. Otherwise (or during
  /// teardown) returns false and changes nothing. Thread-safe.
  bool try_serve_here(const HubRequest& request, const Reply& reply);

  /// try_serve_here(), else submit() and wait for the response.
  HubResponse handle(const HubRequest& request);

  /// Submits every request, in order, and waits for all responses.
  /// Requests for distinct channels run concurrently; requests for the
  /// same channel run in batch order, so responses (and session logs) are
  /// identical at any worker count.
  std::vector<HubResponse> handle_batch(std::span<const HubRequest> requests);

  [[nodiscard]] Stats stats() const;
  /// Pick-ups so far: one per mailbox run of up to batch_max requests,
  /// inline runs included.
  [[nodiscard]] std::uint64_t pickups() const {
    return pickups_.load(std::memory_order_relaxed);
  }
  /// Requests try_serve_here() served on the calling thread.
  [[nodiscard]] std::uint64_t served_inline() const {
    return served_inline_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t session_count() const;
  /// Snapshot of one session's side-chain log (nullopt: unknown channel).
  [[nodiscard]] std::optional<SideChainLog> session_log(
      const U256& channel_id) const;
  /// One session's contract storage at `slot` (nullopt: unknown channel).
  [[nodiscard]] std::optional<U256> session_stored(const U256& channel_id,
                                                   std::uint8_t slot) const;
  /// Audits every session log against the on-chain anchor.
  [[nodiscard]] bool audit_all() const;

 private:
  /// A session plus the mutex serializing its state machine.
  struct SessionSlot {
    SessionSlot(const Hash256& root, const evm::VmConfig& config)
        : session(root, config) {}
    mutable runtime::Mutex mu;
    ChannelSession session GUARDED_BY(mu);
  };

  /// One submitted request waiting in its channel's mailbox.
  struct Pending {
    HubRequest request;
    Reply reply;
    /// Default (the clock's epoch) for a request served where it was
    /// submitted, which waited for nothing.
    std::chrono::steady_clock::time_point submitted;
  };

  /// Leases one of the bounded Vm set for a pick-up. Never waits: at most
  /// `workers` pool pick-ups and one inline run hold a lease at once.
  evm::Vm& acquire_vm();
  void release_vm(evm::Vm& vm);

  /// Lifecycle gate: counts `requests` as in flight until their replies
  /// return; false (nothing counted) once teardown has begun.
  bool admit(std::size_t requests);
  /// `requests` admitted requests have been answered and the pick-up
  /// that served them touches no member again.
  void retire(std::size_t requests);
  /// Appends an admitted request to its channel's mailbox, scheduling the
  /// mailbox on the pool when it was idle.
  void enqueue(HubRequest request, Reply reply);
  /// One worker pick-up of `channel_id`'s mailbox.
  void run_mailbox(const U256& channel_id);
  /// Serves `batch`, taken from `channel_id`'s mailbox, on the calling
  /// thread, then re-queues the mailbox at the pool's tail if work arrived
  /// meanwhile, or drops it.
  void serve_pickup(const U256& channel_id, std::span<Pending> batch);

  [[nodiscard]] std::shared_ptr<SessionSlot> find_session(
      const U256& channel_id) const;

  /// `queue_us` is the submit-to-start wait the worker measured; dispatch
  /// stamps it into the response and the queue-wait histogram.
  HubResponse dispatch(const HubRequest& request, evm::Vm& vm,
                       std::uint32_t queue_us);
  HubResponse serve(const OpenRequest& request, evm::Vm& vm);
  HubResponse serve(const PaymentUpdate& request);
  HubResponse serve(const CloseRequest& request, evm::Vm& vm);
  HubResponse reject(HubStatus status, HubResponseKind kind,
                     const U256& channel_id);

  std::string name_;
  PrivateKey key_;
  Hash256 onchain_root_;
  const evm::VmConfig vm_config_;
  std::size_t batch_max_;
  std::shared_ptr<evm::CodeCache> cache_;
  SensorBank sensor_defaults_;

  std::vector<std::unique_ptr<evm::Vm>> vms_;
  runtime::Mutex vm_mu_;
  std::vector<evm::Vm*> free_vms_ GUARDED_BY(vm_mu_);

  mutable runtime::Mutex sessions_mu_;
  std::map<U256, std::shared_ptr<SessionSlot>> sessions_
      GUARDED_BY(sessions_mu_);

  /// Channel id -> requests not yet picked up. An entry exists exactly
  /// while its mailbox is queued on the pool or being run, by a worker or
  /// inline; an empty map is an idle hub.
  runtime::Mutex mailboxes_mu_;
  std::map<U256, std::deque<Pending>> mailboxes_ GUARDED_BY(mailboxes_mu_);

  /// Lifecycle gate state (admit/retire). The destructor flips `closing_`
  /// and waits for the count to reach zero before member teardown begins,
  /// so a request racing destruction always finishes against a live
  /// session table. Plain std::mutex (not runtime::Mutex): a
  /// condition_variable needs the real type.
  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  std::size_t active_requests_ = 0;
  bool closing_ = false;

  std::atomic<std::uint64_t> opens_{0};
  std::atomic<std::uint64_t> payments_{0};
  std::atomic<std::uint64_t> closes_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> pickups_{0};
  std::atomic<std::uint64_t> served_inline_{0};

  /// Registry instruments shared by every hub with this name (hub.cpp;
  /// interned once in the ctor so the request path never takes the
  /// registry mutex).
  struct Instruments;
  Instruments* obs_ = nullptr;

  /// Declared after the state above: destroyed first among it, so the
  /// pool drains and joins its workers before the mailboxes, Vms and
  /// sessions they touch go away.
  runtime::ThreadPool pool_;

  /// Scrape-time registration republishing stats() under {hub=<name>}.
  /// Declared last: destroyed before everything the collector reads, and
  /// the handle's destructor synchronizes with any in-flight scrape.
  obs::CollectorHandle obs_collector_;
};

}  // namespace tinyevm::channel
