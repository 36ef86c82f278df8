#include "net/service.hpp"

#include <algorithm>
#include <utility>

#include "brahms/node.hpp"
#include "core/node_factory.hpp"
#include "obs/timer.hpp"
#include "wire/buffer.hpp"

namespace raptee::net {

namespace {

constexpr std::uint8_t kKindRequest = 1;
constexpr std::uint8_t kKindReply = 2;

}  // namespace

std::vector<std::uint8_t> encode_sample_request(const SampleRequest& req) {
  wire::Writer w;
  w.u8(kKindRequest);
  w.u64(req.tag);
  w.u16(req.count);
  return w.take();
}

std::vector<std::uint8_t> encode_sample_reply(const SampleReply& reply) {
  wire::Writer w;
  w.u8(kKindReply);
  w.u64(reply.tag);
  w.u64(reply.round);
  w.node_ids(reply.samples);
  return w.take();
}

std::optional<SampleRequest> decode_sample_request(const std::uint8_t* data,
                                                   std::size_t len) {
  try {
    wire::Reader r(data, len);
    if (r.u8() != kKindRequest) return std::nullopt;
    SampleRequest req;
    req.tag = r.u64();
    req.count = r.u16();
    r.expect_done();
    return req;
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

std::optional<SampleReply> decode_sample_reply(const std::uint8_t* data,
                                               std::size_t len) {
  try {
    wire::Reader r(data, len);
    if (r.u8() != kKindReply) return std::nullopt;
    SampleReply reply;
    reply.tag = r.u64();
    reply.round = r.u64();
    reply.samples = r.node_ids(kMaxSamplesPerRequest);
    r.expect_done();
    return reply;
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

ServiceDaemon::ServiceDaemon(DaemonConfig config)
    : config_(config), sample_rng_(mix64(config.seed, 0x53414D50)) {
  obs::Registry& reg = obs::Registry::global();
  served_metric_ = &reg.counter("service.requests_served");
  rejected_metric_ = &reg.counter("service.requests_rejected");
  rounds_metric_ = &reg.counter("service.rounds_stepped");
  sample_us_ = &reg.histogram("service.sample_us");
}

ServiceDaemon::~ServiceDaemon() { stop(); }

std::uint16_t ServiceDaemon::start() {
  RAPTEE_REQUIRE(!started_, "ServiceDaemon::start called twice");
  started_ = true;

  // The embedded population: plain honest RAPTEE nodes, engine defaults
  // (the service's product is the sampler output, not the wire fidelity —
  // the socket path has its own sealed tests).
  sim::EngineConfig ec;
  ec.seed = config_.seed;
  engine_ = std::make_unique<sim::Engine>(ec);
  core::NodeFactory factory(config_.seed, brahms::AuthMode::kFingerprint);
  brahms::BrahmsConfig nc;
  nc.params.l1 = config_.view_size;
  nc.params.l2 = config_.view_size;
  nc.params.validate();
  for (std::size_t i = 0; i < config_.population; ++i) {
    engine_->add_node(factory.make_honest(NodeId{static_cast<std::uint32_t>(i)},
                                          nc, engine_->aliveness_probe()),
                      NodeKind::kHonest);
  }
  engine_->bootstrap_uniform(std::min(config_.view_size, config_.population - 1));
  engine_->run(config_.warmup_rounds);
  rounds_.store(config_.warmup_rounds, std::memory_order_relaxed);
  refresh_snapshot();

  BusConfig bc;
  bc.self = NodeId{0};
  bc.role = PeerRole::kNode;  // the daemon is an endpoint; clients dial in
  bc.on_message = [this](const Peer& peer, std::vector<std::uint8_t> payload) {
    on_frame(peer, std::move(payload));
  };
  bus_ = std::make_unique<Bus>(std::move(bc));
  const std::uint16_t port = bus_->listen(config_.port);
  bus_->start();

  // Release pairs with step_loop()'s acquire load: everything built above
  // (engine_, bus_, snapshot) is visible to the stepper before it runs.
  running_.store(true, std::memory_order_release);
  stepper_ = std::thread([this] { step_loop(); });
  return port;
}

void ServiceDaemon::step_loop() {
  // Acquire pairs with start()'s release store — see above.
  while (running_.load(std::memory_order_acquire)) {
    engine_->step();
    rounds_.fetch_add(1, std::memory_order_relaxed);
    rounds_metric_->add(1);
    refresh_snapshot();
    std::this_thread::sleep_for(config_.step_interval);
  }
}

void ServiceDaemon::refresh_snapshot() {
  // Node 0 is the service node: its l2 sample list is the peer-sampling
  // product. Fall back to its dynamic view while samplers still warm up.
  auto& node = dynamic_cast<brahms::BrahmsNode&>(engine_->node(NodeId{0}));
  std::vector<NodeId> fresh = node.sample_list();
  std::erase_if(fresh, [](NodeId id) { return id.value == 0; });
  if (fresh.empty()) fresh = node.view().ids();
  const std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(fresh);
  snapshot_round_ = engine_->now();
}

void ServiceDaemon::on_frame(const Peer& peer, std::vector<std::uint8_t> payload) {
  const obs::ScopedTimer latency(sample_us_);
  const auto req = decode_sample_request(payload.data(), payload.size());
  if (!req || req->count == 0 || req->count > kMaxSamplesPerRequest) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    rejected_metric_->add(1);
    return;  // malformed or abusive: drop, never answer
  }
  SampleReply reply;
  reply.tag = req->tag;
  {
    const std::lock_guard<std::mutex> lock(snapshot_mu_);
    reply.round = snapshot_round_;
    if (!snapshot_.empty()) {
      reply.samples.reserve(req->count);
      for (std::uint16_t i = 0; i < req->count; ++i) {
        // With replacement: each answer is an independent uniform sample,
        // exactly the peer-sampling service contract.
        reply.samples.push_back(
            snapshot_[sample_rng_.next() % snapshot_.size()]);
      }
    }
  }
  bus_->reply(peer.conn, encode_sample_reply(reply));
  served_.fetch_add(1, std::memory_order_relaxed);
  served_metric_->add(1);
}

void ServiceDaemon::stop() {
  if (!started_) return;
  // acq_rel: the winning stop() both observes the stepper's last round and
  // publishes the false before join(); a racing second stop() sees false.
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    stepper_.join();
  }
  if (bus_) bus_->drain_and_stop(config_.drain);
}

}  // namespace raptee::net
