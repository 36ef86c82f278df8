// INode: the behavioural contract between the round engine and a protocol
// implementation (honest Brahms/RAPTEE node, trusted node, Byzantine node).
// Each call has one form: the target calls fill engine-owned scratch, and
// no default body here calls another INode method.
//
// The engine drives one synchronous gossip round as:
//
//   1. begin_round()                 on every alive node
//   2. push fan-out                  push_targets(out) + make_push(),
//                                    delivered to on_push() mailboxes
//   3. pull exchanges                for each target of pull_targets(out),
//                                    the five-leg exchange below, legs
//                                    optionally serialized + encrypted
//                                    (EngineConfig)
//   4. end_round()                   view/sampler updates
//
// Pull exchange legs (initiator I, responder R):
//   I.open_pull(target)         -> PullRequest    (auth challenge, msg 1)
//   R.answer_pull(request)      -> PullReply      (full view + auth msg 2)
//   I.process_pull_reply(reply) -> AuthConfirm    (auth msg 3, may carry a
//                                                  trusted swap offer)
//   R.process_confirm(confirm)  -> optional<SwapReply>
//   I.process_swap_reply(reply)                   (closes trusted exchange)
//
// Implementations must tolerate any leg being dropped (message loss /
// crashed peer): the engine then calls on_pull_timeout() on the initiator.
//
// The engine reads a node's view only through view_capacity() and
// copy_view(), which fill its view slab; code holding an INode reads the
// view through Engine::view_of.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "wire/message.hpp"

namespace raptee::sim {

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
  /// Whether this node will answer a pull request from `requester` this
  /// round. Honest nodes always answer; an omission adversary refuses —
  /// the engine counts the suppressed leg and the initiator times out.
  [[nodiscard]] virtual bool answers_pull(NodeId requester) {
    (void)requester;
    return true;
  }
  [[nodiscard]] virtual wire::PullRequest open_pull(NodeId target) = 0;
  [[nodiscard]] virtual wire::PullReply answer_pull(const wire::PullRequest& request) = 0;
  [[nodiscard]] virtual wire::AuthConfirm process_pull_reply(const wire::PullReply& reply) = 0;
  [[nodiscard]] virtual std::optional<wire::SwapReply> process_confirm(
      const wire::AuthConfirm& confirm) = 0;
  virtual void process_swap_reply(const wire::SwapReply& reply) = 0;
  /// The exchange with `target` did not complete (loss or dead peer).
  virtual void on_pull_timeout(NodeId target) { (void)target; }

  /// Phase 4: end of round; protocol state updates happen here.
  virtual void end_round(Round r) = 0;

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
