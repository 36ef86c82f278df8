// INode: the behavioural contract between the round engine and a protocol
// implementation (honest Brahms/RAPTEE node, trusted node, Byzantine node).
// Each call has one form: the target calls and the exchange legs fill
// engine-owned scratch, and no default body here calls another INode
// method.
//
// The engine drives one synchronous gossip round as:
//
//   1. begin_round()                 on every alive node
//   2. push fan-out                  push_targets(out) + make_push(),
//                                    delivered to on_push() mailboxes
//   3. pull exchanges                for each target of pull_targets(out),
//                                    the five-leg exchange below, legs
//                                    optionally serialized + encrypted
//                                    (EngineConfig); before a wave-run
//                                    round's exchanges start,
//                                    plan_exchange() on each Byzantine
//                                    endpoint
//   4. end_round(scratch)            view/sampler updates, in working memory
//                                    the engine lends (RoundScratch)
//
// Pull exchange legs (initiator I, responder R), each writing the next
// leg's message into `out`:
//   I.open_pull(target, out)              PullRequest  (auth challenge, msg 1)
//   R.answer_pull(request, out)           PullReply    (full view + auth msg 2)
//   I.process_pull_reply(reply, out)      AuthConfirm  (auth msg 3, may carry
//                                                       a trusted swap offer)
//   R.process_confirm(confirm, out)       SwapReply, when it returns true
//   I.process_swap_reply(reply)                        (closes trusted exchange)
//
// `out` is a message the engine owns and reuses for every exchange it runs
// on that lane: a leg overwrites every field it sends (vectors by
// clear-and-fill, so their capacity persists), and a node keeps no
// reference to any message past the call. Implementations must tolerate
// any leg being dropped (message loss / crashed peer): the engine then
// calls on_pull_timeout() on the initiator.
//
// Concurrency. A lossless round runs its exchanges in waves (see
// sim/engine.hpp for the runs that stay serial): no two exchanges of a
// wave share a node, each exchange runs all its legs on one thread, and
// every node meets its exchanges in the round's shuffled order. So a node
// is in one exchange at a time and may keep single-slot exchange state,
// but its legs run on pool threads: they may touch only the node's own
// state, read-only shared state, and shared state whose use was fixed in
// plan_exchange().
//
// Lookahead. The engine walks each run of exchanges one thread runs (a
// lane's slice of a wave, or the serial run) with a prefetch pipeline: two
// exchanges ahead it calls prefetch() on both endpoints, from the thread
// that will run that exchange, never past the run's end. prefetch() is a
// hint: it reads only the node's own state, writes nothing, allocates
// nothing, and no result may depend on whether or when it is called. The
// default does nothing.
//
// The engine reads a node's view only through view_capacity() and
// copy_view(), which fill its view slab; code holding an INode reads the
// view through Engine::view_of.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "wire/message.hpp"

namespace raptee::sim {

/// Working memory the engine lends end_round(). The engine keeps one per
/// block of nodes and always runs a block with the same scratch, so what a
/// scratch grows to depends on the population and the width, never on
/// which thread ran which node. A node type keeps its own state in it,
/// built on first use; nodes that share a scratch must use the same type.
class RoundScratch {
 public:
  template <typename T>
  [[nodiscard]] T& get() {
    static const char tag = 0;  // one address per T
    if (!state_) {
      state_ = std::make_shared<T>();
      tag_ = &tag;
    }
    RAPTEE_ASSERT_MSG(tag_ == &tag, "one RoundScratch holds one node type's state");
    return *static_cast<T*>(state_.get());
  }

 private:
  std::shared_ptr<void> state_;
  const char* tag_ = nullptr;
};

class INode {
 public:
  virtual ~INode() = default;

  [[nodiscard]] virtual NodeId id() const = 0;

  /// Installs the initial view (bootstrap-node handout). Called once before
  /// the first round; may be called again to model a rejoin.
  virtual void bootstrap(const std::vector<NodeId>& initial_peers) = 0;

  /// Phase 1: start of round r. Buffers from the previous round are gone.
  virtual void begin_round(Round r) = 0;

  /// Phase 2a: replaces the contents of `out` with the recipients of this
  /// round's push messages (duplicates allowed; Brahms samples targets with
  /// replacement). `out` is engine scratch whose capacity persists across
  /// rounds.
  virtual void push_targets(std::vector<NodeId>& out) = 0;
  /// Phase 2b: the push payload (a node advertises an ID; honest nodes
  /// advertise their own, Byzantine nodes advertise any faulty ID).
  [[nodiscard]] virtual wire::PushMessage make_push() = 0;
  /// Phase 2c: push delivery.
  virtual void on_push(const wire::PushMessage& push) = 0;

  /// Phase 3: replaces the contents of `out` with this round's pull
  /// targets; each then runs the exchange in the leg order documented above.
  virtual void pull_targets(std::vector<NodeId>& out) = 0;
  /// Phase 3 planning, before a lossless round's exchanges run in waves:
  /// called on the coordinating thread, in the round's shuffled exchange
  /// order, on the Byzantine endpoints of every exchange that will start
  /// (responder before initiator, the order of their legs). A node whose
  /// legs draw on state it shares with other nodes (the adversary's
  /// Coordinator stream) fixes each such draw's position here. A run whose
  /// exchanges go one at a time in shuffled order (leg fates drawn by
  /// message loss or tampering; see sim/engine.hpp) plans nothing.
  virtual void plan_exchange(NodeId initiator, NodeId responder) {
    (void)initiator;
    (void)responder;
  }
  /// Whether this node will answer a pull request from `requester` this
  /// round. Honest nodes always answer; an omission adversary refuses —
  /// the engine counts the suppressed leg and the initiator times out.
  [[nodiscard]] virtual bool answers_pull(NodeId requester) {
    (void)requester;
    return true;
  }
  virtual void open_pull(NodeId target, wire::PullRequest& out) = 0;
  virtual void answer_pull(const wire::PullRequest& request, wire::PullReply& out) = 0;
  virtual void process_pull_reply(const wire::PullReply& reply, wire::AuthConfirm& out) = 0;
  /// Returns whether the responder closes a trusted exchange; only then is
  /// `out` written and sent.
  [[nodiscard]] virtual bool process_confirm(const wire::AuthConfirm& confirm,
                                             wire::SwapReply& out) = 0;
  virtual void process_swap_reply(const wire::SwapReply& reply) = 0;
  /// The exchange with `target` did not complete (loss or dead peer).
  virtual void on_pull_timeout(NodeId target) { (void)target; }
  /// Phase 3 lookahead hint (see the header note): prefetches the state
  /// this node's next exchange touches. Reads only the node's own state.
  virtual void prefetch() const {}

  /// Phase 4: end of round; protocol state updates happen here, in
  /// `scratch` for anything sized by the round's traffic.
  virtual void end_round(Round r, RoundScratch& scratch) = 0;

  /// Upper bound on this node's view size, stable within a round. The
  /// engine sizes the node's slot in its structure-of-arrays view slab
  /// (Engine::view_of) from this. Return 0 to opt out of the slab (the
  /// adversary does: Byzantine "views" are synthetic and excluded from
  /// every honest-side metric anyway).
  [[nodiscard]] virtual std::size_t view_capacity() const = 0;
  /// Copies the current view into `out` (capacity `cap`, as promised by
  /// view_capacity()) and returns the number of entries written. Must not
  /// allocate.
  virtual std::size_t copy_view(NodeId* out, std::size_t cap) const = 0;
};

}  // namespace raptee::sim
