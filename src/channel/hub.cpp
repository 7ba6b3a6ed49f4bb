#include "channel/hub.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

#include "evm/code_cache.hpp"
#include "obs/trace.hpp"

namespace tinyevm::channel {

/// Registry instruments for one hub name, interned once so the request
/// path costs pointer dereferences, never the registry mutex. Hubs that
/// share a name share series (counters accumulate across them).
struct ChannelHub::Instruments {
  static constexpr std::size_t kKinds = 3;     // HubResponseKind values
  static constexpr std::size_t kStatuses = 8;  // HubStatus values
  std::array<std::array<obs::Counter*, kStatuses>, kKinds> requests{};
  std::array<obs::Histogram*, kKinds> service_us{};
  obs::Histogram* queue_us = nullptr;

  static const char* kind_name(std::size_t kind) {
    switch (static_cast<HubResponseKind>(kind)) {
      case HubResponseKind::Open: return "open";
      case HubResponseKind::Payment: return "payment";
      case HubResponseKind::Close: return "close";
    }
    return "?";
  }
  /// The span name for one request kind (static storage, as Tracer
  /// requires).
  static const char* span_name(std::size_t kind) {
    switch (static_cast<HubResponseKind>(kind)) {
      case HubResponseKind::Open: return "hub.open";
      case HubResponseKind::Payment: return "hub.payment";
      case HubResponseKind::Close: return "hub.close";
    }
    return "hub.request";
  }

  explicit Instruments(const std::string& hub) {
    auto& registry = obs::Registry::instance();
    for (std::size_t k = 0; k < kKinds; ++k) {
      for (std::size_t s = 0; s < kStatuses; ++s) {
        requests[k][s] = &registry.counter(
            "tinyevm_hub_requests_total",
            "Hub requests served, by request kind and response status",
            {{"hub", hub},
             {"kind", kind_name(k)},
             {"status", std::string(to_string(static_cast<HubStatus>(s)))}});
      }
      service_us[k] = &registry.histogram(
          "tinyevm_hub_service_us",
          "Worker service time per request (dispatch start to response), "
          "microseconds",
          {{"hub", hub}, {"kind", kind_name(k)}});
    }
    queue_us = &registry.histogram(
        "tinyevm_hub_queue_us",
        "Wait from submit to the moment a worker started on a request, "
        "microseconds",
        {{"hub", hub}});
  }

  static Instruments& for_hub(const std::string& hub) {
    static std::mutex mu;
    static auto* table =
        new std::unordered_map<std::string, std::unique_ptr<Instruments>>();
    std::lock_guard lock(mu);
    auto it = table->find(hub);
    if (it == table->end()) {
      it = table->emplace(hub, std::make_unique<Instruments>(hub)).first;
    }
    return *it->second;
  }
};

// ---- DeviceHost ----

U256 DeviceHost::sload(const evm::Address& addr, const U256& key) {
  const auto it = storage_.find(addr);
  return it == storage_.end() ? U256{} : it->second.load(key);
}

bool DeviceHost::sstore(const evm::Address& addr, const U256& key,
                        const U256& value) {
  auto [it, inserted] =
      storage_.try_emplace(addr, evm::TinyStorage{config_.storage_limit});
  return it->second.store(key, value);
}

evm::Bytes DeviceHost::code_at(const evm::Address& addr) {
  const auto it = contracts_.find(addr);
  return it == contracts_.end() ? evm::Bytes{} : it->second;
}

evm::CreateResult DeviceHost::create(const evm::CreateRequest& req) {
  evm::Vm vm{config_};
  evm::Message msg;
  // Device-local address scheme: 0xD1 marker byte, counter in the tail.
  msg.self[0] = 0xD1;
  std::uint64_t n = next_contract_++;
  for (int i = 19; i > 11 && n != 0; --i) {
    msg.self[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(n);
    n >>= 8;
  }
  msg.caller = req.sender;
  msg.value = req.value;
  msg.code = req.init_code;
  msg.gas = req.gas;
  msg.depth = req.depth;
  const evm::ExecResult r = vm.execute(*this, msg);
  if (!r.ok()) return evm::CreateResult{false, {}, r.gas_left};
  contracts_[msg.self] = r.output;
  code_hashes_[msg.self] = keccak256(r.output);
  return evm::CreateResult{true, msg.self, r.gas_left};
}

evm::CallResult DeviceHost::call(const evm::CallRequest& req) {
  const auto it = contracts_.find(req.to);
  if (it == contracts_.end()) {
    return evm::CallResult{true, {}, req.gas};  // value-transfer no-op
  }
  evm::Vm vm{config_};
  evm::Message msg;
  msg.self = req.to;
  msg.caller = req.sender;
  msg.value = req.value;
  msg.data = req.data;
  msg.code = it->second;
  if (const auto hash = code_hashes_.find(req.to);
      hash != code_hashes_.end()) {
    msg.code_hash = hash->second;
  }
  msg.gas = req.gas;
  msg.depth = req.depth;
  msg.is_static = req.is_static;
  const evm::ExecResult r = vm.execute(*this, msg);
  return evm::CallResult{r.ok(), r.output, r.gas_left};
}

void DeviceHost::self_destruct(const evm::Address& addr,
                               const evm::Address&) {
  // The side-chain log is the durable artifact; the contract and its slots
  // go away with the channel.
  contracts_.erase(addr);
  code_hashes_.erase(addr);
  storage_.erase(addr);
}

std::optional<U256> DeviceHost::sensor_access(const evm::SensorRequest& req) {
  if (req.actuate) {
    return sensors_.actuate(req.device_id, req.parameter)
               ? std::optional<U256>{U256{1}}
               : std::nullopt;
  }
  return sensors_.read(req.device_id);
}

const evm::TinyStorage* DeviceHost::storage_of(
    const evm::Address& addr) const {
  const auto it = storage_.find(addr);
  return it == storage_.end() ? nullptr : &it->second;
}

// ---- ChannelSession ----

std::optional<evm::Address> ChannelSession::open(evm::Vm& vm,
                                                 const U256& channel_id,
                                                 const U256& rate,
                                                 std::uint32_t sensor_device) {
  channel_id_ = channel_id;
  sensor_device_ = sensor_device;

  // Per-channel contract address: 0xCC marker + low bytes of the channel id
  // (device-local namespace; the on-chain id is what peers agree on).
  evm::Address addr{};
  addr[0] = 0xCC;
  const auto idw = channel_id.to_word();
  std::memcpy(addr.data() + 12, idw.data() + 24, 8);

  // Execute the template's constructor on the local TinyEVM. The negotiated
  // rate arrives as constructor calldata word 0; the 0x0c opcode inside the
  // prologue samples the on-board sensor (paper Listing 2).
  evm::Message msg;
  msg.self = addr;
  msg.code = payment_channel_init_code(sensor_device);
  // One named word: `rate.to_word().begin(), rate.to_word().end()` would
  // take iterators from two distinct temporaries (caught by the ASan CI
  // sweep when it grew to cover this suite).
  const auto rate_word = rate.to_word();
  msg.data.assign(rate_word.begin(), rate_word.end());
  msg.gas = 10'000'000;
  const evm::ExecResult r = vm.execute(host_, msg);
  stats_.vm_cycles += r.stats.mcu_cycles;
  if (!r.ok() || r.output.empty()) return std::nullopt;

  contract_ = addr;
  runtime_code_ = r.output;
  runtime_code_hash_ = keccak256(runtime_code_);
  return contract_;
}

std::optional<U256> ChannelSession::run_contract(evm::Vm& vm,
                                                 const evm::Bytes& calldata) {
  if (!contract_) return std::nullopt;
  evm::Message msg;
  msg.self = *contract_;
  msg.caller = evm::Address{};
  msg.data = calldata;
  msg.code = runtime_code_;
  if (runtime_code_hash_ != Hash256{}) {
    msg.code_hash = runtime_code_hash_;  // every round reruns the same code
  }
  msg.gas = 10'000'000;
  const evm::ExecResult r = vm.execute(host_, msg);
  stats_.vm_cycles += r.stats.mcu_cycles;
  if (!r.ok()) return std::nullopt;
  if (r.output.size() != 32) return U256{};
  return U256::from_bytes(r.output);
}

ChannelState ChannelSession::next_state(const U256& paid_total,
                                        std::uint64_t seq) const {
  ChannelState state;
  state.channel_id = channel_id_;
  state.sequence = seq;
  state.paid_total = paid_total;
  state.sensor_data = stored(TemplateSlots::kSensor);
  state.prev_hash = log_.head();
  return state;
}

std::optional<SignedState> ChannelSession::make_payment(evm::Vm& vm,
                                                        const PrivateKey& key,
                                                        const U256& units) {
  const auto paid_total = run_contract(vm, encode_pay_call(units));
  if (!paid_total) return std::nullopt;
  const auto status = run_contract(vm, encode_status_call());
  if (!status) return std::nullopt;
  const std::uint64_t seq = (*status >> 128).as_u64();

  SignedState signed_state;
  signed_state.state = next_state(*paid_total, seq);
  signed_state.sender_sig = secp256k1::sign(signed_state.state.digest(), key);
  ++stats_.signatures;
  ++stats_.states_signed;
  return signed_state;
}

std::optional<Signature> ChannelSession::countersign(const ChannelState& state,
                                                     const PrivateKey& key) {
  if (step(head(), state) != StepStatus::Ok) return std::nullopt;
  ++stats_.signatures;
  return secp256k1::sign(state.digest(), key);
}

HubStatus ChannelSession::countersign_payment(SignedState& proposal,
                                              const PrivateKey& key) {
  if (step(head(), proposal.state) != StepStatus::Ok) {
    return HubStatus::BadState;
  }
  const Hash256 digest = proposal.state.digest();
  ++stats_.verifications;
  if (!secp256k1::recover_address(digest, proposal.sender_sig)) {
    return HubStatus::BadSignature;
  }
  ++stats_.signatures;
  proposal.receiver_sig = secp256k1::sign(digest, key);
  log_.append(proposal);  // cannot fail: step accepted it against this head
  return HubStatus::Ok;
}

bool ChannelSession::accept(const SignedState& signed_state) {
  stats_.verifications += 2;
  const auto signers = signed_state.recover_signers();
  if (!signers) return false;
  return log_.append(signed_state);
}

std::optional<SignedState> ChannelSession::close(evm::Vm& vm,
                                                 const PrivateKey& key) {
  const auto status = run_contract(vm, encode_status_call());
  if (!status) return std::nullopt;
  const U256 paid = *status & ((U256{1} << 128) - U256{1});
  const std::uint64_t seq = (*status >> 128).as_u64() + 1;
  const U256 sensor_at_close = stored(TemplateSlots::kSensor);
  (void)run_contract(vm, encode_close_call());
  // close() ends in SELFDESTRUCT; the session holds the runtime outside the
  // host's contract table, so retire it here as well.
  contract_.reset();
  runtime_code_.clear();
  runtime_code_hash_ = Hash256{};

  SignedState signed_state;
  signed_state.state = next_state(paid, seq);
  signed_state.state.sensor_data = sensor_at_close;
  signed_state.sender_sig = secp256k1::sign(signed_state.state.digest(), key);
  ++stats_.signatures;
  return signed_state;
}

U256 ChannelSession::stored(std::uint8_t slot) const {
  if (!contract_) return U256{};
  const auto* st = host_.storage_of(*contract_);
  return st ? st->load(U256{slot}) : U256{};
}

// ---- Wire surface ----

std::string_view to_string(HubStatus s) {
  switch (s) {
    case HubStatus::Ok: return "ok";
    case HubStatus::UnknownChannel: return "unknown-channel";
    case HubStatus::DuplicateChannel: return "duplicate-channel";
    case HubStatus::ChannelClosed: return "channel-closed";
    case HubStatus::VmFailure: return "vm-failure";
    case HubStatus::BadState: return "bad-state";
    case HubStatus::BadSignature: return "bad-signature";
    case HubStatus::Busy: return "busy";
  }
  return "?";
}

namespace {

const U256& channel_of(const HubRequest& request) {
  return std::visit([](const auto& r) -> const U256& { return r.channel_id; },
                    request);
}

}  // namespace

HubResponse busy_response(const HubRequest& request) {
  HubResponse response;
  response.status = HubStatus::Busy;
  // Variant order == kind order (see ChannelHub::dispatch()).
  response.kind = static_cast<HubResponseKind>(request.index());
  response.channel_id = channel_of(request);
  return response;
}

// ---- ChannelHub ----

ChannelHub::ChannelHub(std::string name, const PrivateKey& key,
                       const Hash256& onchain_root)
    : ChannelHub(std::move(name), key, onchain_root, Config{}) {}

ChannelHub::ChannelHub(std::string name, const PrivateKey& key,
                       const Hash256& onchain_root, Config config)
    : name_(std::move(name)),
      key_(key),
      onchain_root_(onchain_root),
      vm_config_(config.vm_config),
      batch_max_(config.batch_max != 0
                     ? config.batch_max
                     : throw std::invalid_argument(
                           "ChannelHub: batch_max must be at least 1")),
      cache_(config.code_cache ? std::move(config.code_cache)
                               : evm::CodeCache::shared_default()),
      pool_(config.workers) {
  // One Vm per worker plus one for the inline run try_serve_here() allows.
  const std::size_t leases = pool_.thread_count() + 1;
  vms_.reserve(leases);
  {
    runtime::MutexLock lock(vm_mu_);
    free_vms_.reserve(leases);
    for (std::size_t i = 0; i < leases; ++i) {
      vms_.push_back(std::make_unique<evm::Vm>(vm_config_, cache_));
      free_vms_.push_back(vms_.back().get());
    }
  }
  obs_ = &Instruments::for_hub(name_);
  obs_collector_ = obs::Registry::instance().add_collector(
      [this](obs::Collection& out) {
        const Stats s = stats();
        const obs::LabelSet hub{{"hub", name_}};
        out.counter("tinyevm_hub_opens_total", "Sessions opened successfully",
                    hub, static_cast<double>(s.opens));
        out.counter("tinyevm_hub_payments_total", "Payment updates applied",
                    hub, static_cast<double>(s.payments));
        out.counter("tinyevm_hub_closes_total", "Sessions closed", hub,
                    static_cast<double>(s.closes));
        out.counter("tinyevm_hub_rejected_total",
                    "Requests answered with a non-Ok status", hub,
                    static_cast<double>(s.rejected));
        out.counter("tinyevm_hub_signatures_total",
                    "ECDSA signs across every session", hub,
                    static_cast<double>(s.signatures));
        out.counter("tinyevm_hub_verifications_total",
                    "Signature recoveries across every session", hub,
                    static_cast<double>(s.verifications));
        out.counter("tinyevm_hub_vm_cycles_total",
                    "Modeled MCU cycles across every session", hub,
                    static_cast<double>(s.vm_cycles));
        out.gauge("tinyevm_hub_sessions", "Session-table size (open + closed)",
                  hub, static_cast<double>(s.sessions));
        out.gauge("tinyevm_hub_open_sessions", "Sessions currently open", hub,
                  static_cast<double>(s.open_sessions));
        out.counter("tinyevm_hub_served_inline_total",
                    "Requests served on the submitting thread of an idle "
                    "hub, with no worker hand-off",
                    hub, static_cast<double>(served_inline()));
        out.gauge("tinyevm_hub_workers", "Worker threads", hub,
                  static_cast<double>(worker_count()));
        std::size_t free_vms = 0;
        {
          runtime::MutexLock lock(vm_mu_);
          free_vms = free_vms_.size();
        }
        out.gauge("tinyevm_hub_free_vms", "Vms not currently leased", hub,
                  static_cast<double>(free_vms));
      });
}

ChannelHub::~ChannelHub() {
  std::unique_lock lock(lifecycle_mu_);
  closing_ = true;
  lifecycle_cv_.wait(lock, [this] { return active_requests_ == 0; });
}

bool ChannelHub::admit(std::size_t requests) {
  std::lock_guard lock(lifecycle_mu_);
  if (closing_) return false;
  active_requests_ += requests;
  return true;
}

void ChannelHub::retire(std::size_t requests) {
  std::lock_guard lock(lifecycle_mu_);
  active_requests_ -= requests;
  if (active_requests_ == 0) lifecycle_cv_.notify_all();
}

void ChannelHub::set_sensor_default(std::uint32_t device, const U256& value) {
  runtime::MutexLock lock(sessions_mu_);
  sensor_defaults_.set_reading(device, value);
}

void ChannelHub::register_actuator_default(std::uint32_t device) {
  runtime::MutexLock lock(sessions_mu_);
  sensor_defaults_.register_actuator(device);
}

evm::Vm& ChannelHub::acquire_vm() {
  runtime::MutexLock lock(vm_mu_);
  evm::Vm* vm = free_vms_.back();
  free_vms_.pop_back();
  return *vm;
}

void ChannelHub::release_vm(evm::Vm& vm) {
  runtime::MutexLock lock(vm_mu_);
  free_vms_.push_back(&vm);
}

std::shared_ptr<ChannelHub::SessionSlot> ChannelHub::find_session(
    const U256& channel_id) const {
  runtime::MutexLock lock(sessions_mu_);
  const auto it = sessions_.find(channel_id);
  return it == sessions_.end() ? nullptr : it->second;
}

HubResponse ChannelHub::reject(HubStatus status, HubResponseKind kind,
                               const U256& channel_id) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  HubResponse response;
  response.status = status;
  response.kind = kind;
  response.channel_id = channel_id;
  return response;
}

HubResponse ChannelHub::serve(const OpenRequest& request, evm::Vm& vm) {
  std::shared_ptr<SessionSlot> slot;
  {
    runtime::MutexLock lock(sessions_mu_);
    auto [it, inserted] = sessions_.try_emplace(request.channel_id, nullptr);
    if (!inserted) {
      return reject(HubStatus::DuplicateChannel, HubResponseKind::Open,
                    request.channel_id);
    }
    it->second = std::make_shared<SessionSlot>(onchain_root_, vm_config_);
    slot = it->second;
    // Seed the session's peripherals before the constructor samples them.
    slot->session.sensors() = sensor_defaults_;
  }
  runtime::MutexLock session_lock(slot->mu);
  const auto contract = slot->session.open(vm, request.channel_id,
                                           request.rate,
                                           request.sensor_device);
  if (!contract) {
    // The constructor failed; drop the placeholder so the endpoint can
    // retry the open (e.g. after the sensor comes up).
    runtime::MutexLock lock(sessions_mu_);
    sessions_.erase(request.channel_id);
    return reject(HubStatus::VmFailure, HubResponseKind::Open,
                  request.channel_id);
  }
  opens_.fetch_add(1, std::memory_order_relaxed);
  HubResponse response;
  response.kind = HubResponseKind::Open;
  response.channel_id = request.channel_id;
  response.contract = contract;
  return response;
}

HubResponse ChannelHub::serve(const PaymentUpdate& request) {
  const auto slot = find_session(request.channel_id);
  if (!slot) {
    return reject(HubStatus::UnknownChannel, HubResponseKind::Payment,
                  request.channel_id);
  }
  runtime::MutexLock session_lock(slot->mu);
  if (!slot->session.is_open()) {
    return reject(HubStatus::ChannelClosed, HubResponseKind::Payment,
                  request.channel_id);
  }
  SignedState full = request.proposal;
  const HubStatus status = slot->session.countersign_payment(full, key_);
  if (status != HubStatus::Ok) {
    return reject(status, HubResponseKind::Payment, request.channel_id);
  }
  payments_.fetch_add(1, std::memory_order_relaxed);
  HubResponse response;
  response.kind = HubResponseKind::Payment;
  response.channel_id = request.channel_id;
  response.state = std::move(full);
  return response;
}

HubResponse ChannelHub::serve(const CloseRequest& request, evm::Vm& vm) {
  const auto slot = find_session(request.channel_id);
  if (!slot) {
    return reject(HubStatus::UnknownChannel, HubResponseKind::Close,
                  request.channel_id);
  }
  runtime::MutexLock session_lock(slot->mu);
  if (!slot->session.is_open()) {
    return reject(HubStatus::ChannelClosed, HubResponseKind::Close,
                  request.channel_id);
  }
  auto final_state = slot->session.close(vm, key_);
  if (!final_state) {
    return reject(HubStatus::VmFailure, HubResponseKind::Close,
                  request.channel_id);
  }
  closes_.fetch_add(1, std::memory_order_relaxed);
  HubResponse response;
  response.kind = HubResponseKind::Close;
  response.channel_id = request.channel_id;
  response.state = std::move(*final_state);
  return response;
}

HubResponse ChannelHub::dispatch(const HubRequest& request, evm::Vm& vm,
                                 std::uint32_t queue_us) {
  const std::size_t kind = request.index();  // variant order == kind order
  obs::Span span(Instruments::span_name(kind), "hub");
  const auto start = std::chrono::steady_clock::now();
  HubResponse response = std::visit(
      [&](const auto& r) {
        if constexpr (std::is_same_v<std::decay_t<decltype(r)>,
                                     PaymentUpdate>) {
          return serve(r);
        } else {
          return serve(r, vm);
        }
      },
      request);
  response.queue_us = queue_us;
  response.service_us = static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (obs::metrics_enabled()) {
    obs_->requests[kind][static_cast<std::size_t>(response.status)]->inc();
    obs_->service_us[kind]->record(response.service_us);
    obs_->queue_us->record(queue_us);
  }
  return response;
}

void ChannelHub::submit(HubRequest request, Reply reply) {
  if (!admit(1)) {
    // Teardown has begun: answer without touching any other member, since
    // the destructor is no longer waiting for this request.
    reply(busy_response(request));
    return;
  }
  enqueue(std::move(request), std::move(reply));
}

void ChannelHub::enqueue(HubRequest request, Reply reply) {
  const U256 channel_id = channel_of(request);
  bool idle = false;
  {
    runtime::MutexLock lock(mailboxes_mu_);
    auto [it, inserted] = mailboxes_.try_emplace(channel_id);
    it->second.push_back(Pending{std::move(request), std::move(reply),
                                 std::chrono::steady_clock::now()});
    idle = inserted;
  }
  // Outside the lock: the entry now exists, so no other submit schedules
  // it, and no worker can run it before this task is queued.
  if (idle) pool_.submit([this, channel_id] { run_mailbox(channel_id); });
}

bool ChannelHub::try_serve_here(const HubRequest& request,
                                const Reply& reply) {
  const U256& channel_id = channel_of(request);
  {
    runtime::MutexLock lock(mailboxes_mu_);
    // Teardown refuses the admission; the caller's submit() answers Busy.
    if (!mailboxes_.empty() || !admit(1)) return false;
    // The entry marks the channel running: its next submits queue behind
    // this request, and no other inline run can start.
    mailboxes_.try_emplace(channel_id);
  }
  served_inline_.fetch_add(1, std::memory_order_relaxed);
  Pending pending{request, reply, {}};
  serve_pickup(channel_id, {&pending, 1});
  return true;
}

void ChannelHub::run_mailbox(const U256& channel_id) {
  std::vector<Pending> batch;
  {
    runtime::MutexLock lock(mailboxes_mu_);
    auto& queue = mailboxes_.find(channel_id)->second;
    const auto take = static_cast<std::ptrdiff_t>(
        std::min(batch_max_, queue.size()));
    batch.assign(std::make_move_iterator(queue.begin()),
                 std::make_move_iterator(queue.begin() + take));
    queue.erase(queue.begin(), queue.begin() + take);
  }
  serve_pickup(channel_id, batch);
}

void ChannelHub::serve_pickup(const U256& channel_id,
                              std::span<Pending> batch) {
  pickups_.fetch_add(1, std::memory_order_relaxed);
  evm::Vm& vm = acquire_vm();
  for (Pending& pending : batch) {
    const auto queue_us =
        pending.submitted == std::chrono::steady_clock::time_point{}
            ? 0u
            : static_cast<std::uint32_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - pending.submitted)
                      .count());
    pending.reply(dispatch(pending.request, vm, queue_us));
  }
  release_vm(vm);
  bool more = false;
  {
    runtime::MutexLock lock(mailboxes_mu_);
    const auto it = mailboxes_.find(channel_id);
    more = !it->second.empty();
    if (!more) mailboxes_.erase(it);
  }
  // Work left means unretired requests, so the destructor is still waiting
  // and the pool is alive. The tail of the queue: other channels' mailboxes
  // get their turn first.
  if (more) pool_.submit([this, channel_id] { run_mailbox(channel_id); });
  // Last: once the batch retires, the destructor may tear the hub down,
  // and an inline run's thread is not one the pool joins.
  retire(batch.size());
}

HubResponse ChannelHub::handle(const HubRequest& request) {
  HubResponse response;
  if (try_serve_here(request, [&response](HubResponse r) {
        response = std::move(r);
      })) {
    return response;
  }
  return std::move(handle_batch({&request, 1}).front());
}

std::vector<HubResponse> ChannelHub::handle_batch(
    std::span<const HubRequest> requests) {
  std::vector<HubResponse> responses(requests.size());
  if (requests.empty()) return responses;
  // One admission for the whole batch: a destructor racing it either
  // refuses every request or waits for every one.
  if (!admit(requests.size())) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      responses[i] = busy_response(requests[i]);
    }
    return responses;
  }
  std::mutex mu;
  std::condition_variable done;
  std::size_t remaining = requests.size();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    enqueue(requests[i], [&, i](HubResponse response) {
      responses[i] = std::move(response);
      // Notify under the lock: once it drops, this frame may be gone.
      std::lock_guard lock(mu);
      if (--remaining == 0) done.notify_all();
    });
  }
  std::unique_lock lock(mu);
  done.wait(lock, [&] { return remaining == 0; });
  return responses;
}

ChannelHub::Stats ChannelHub::stats() const {
  Stats s;
  s.opens = opens_.load(std::memory_order_relaxed);
  s.payments = payments_.load(std::memory_order_relaxed);
  s.closes = closes_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<SessionSlot>> slots;
  {
    runtime::MutexLock lock(sessions_mu_);
    s.sessions = sessions_.size();
    slots.reserve(sessions_.size());
    for (const auto& [id, slot] : sessions_) slots.push_back(slot);
  }
  for (const auto& slot : slots) {
    runtime::MutexLock session_lock(slot->mu);
    const EndpointStats& e = slot->session.stats();
    s.signatures += e.signatures;
    s.verifications += e.verifications;
    s.vm_cycles += e.vm_cycles;
    if (slot->session.is_open()) ++s.open_sessions;
  }
  return s;
}

std::size_t ChannelHub::session_count() const {
  runtime::MutexLock lock(sessions_mu_);
  return sessions_.size();
}

std::optional<SideChainLog> ChannelHub::session_log(
    const U256& channel_id) const {
  const auto slot = find_session(channel_id);
  if (!slot) return std::nullopt;
  runtime::MutexLock session_lock(slot->mu);
  return slot->session.log();
}

std::optional<U256> ChannelHub::session_stored(const U256& channel_id,
                                               std::uint8_t slot_key) const {
  const auto slot = find_session(channel_id);
  if (!slot) return std::nullopt;
  runtime::MutexLock session_lock(slot->mu);
  return slot->session.stored(slot_key);
}

bool ChannelHub::audit_all() const {
  std::vector<std::shared_ptr<SessionSlot>> slots;
  {
    runtime::MutexLock lock(sessions_mu_);
    slots.reserve(sessions_.size());
    for (const auto& [id, slot] : sessions_) slots.push_back(slot);
  }
  return std::all_of(slots.begin(), slots.end(), [&](const auto& slot) {
    runtime::MutexLock session_lock(slot->mu);
    return slot->session.log().audit(onchain_root_);
  });
}

}  // namespace tinyevm::channel
