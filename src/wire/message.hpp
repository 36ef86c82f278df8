// Protocol message definitions and their wire codecs.
//
// RAPTEE's gossip round uses five message legs:
//
//   Push                 one-way; carries only the sender's ID (paper §III-A)
//   PullRequest          opens a pull exchange; piggybacks auth message 1
//   PullReply            full view of the responder; piggybacks auth message 2
//   AuthConfirm          auth message 3; when the initiator has established
//                        mutual trust it piggybacks its half-view swap offer
//   SwapReply            responder's half view, closing a trusted exchange
//
// Piggybacking the three-message authentication onto the pull exchange is a
// transport optimisation only: the byte content of each auth field is exactly
// the protocol of §IV-A, and the observable sequence (every pull preceded by
// a challenge–response) matches the paper. Every codec round-trips through
// the bounds-checked Reader, so arbitrary Byzantine bytes decode or fail
// cleanly (WireError), never crash.
#pragma once

#include <utility>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "crypto/mutual_auth.hpp"
#include "wire/buffer.hpp"

namespace raptee::wire {

enum class MsgType : std::uint8_t {
  kPush = 1,
  kPullRequest = 2,
  kPullReply = 3,
  kAuthConfirm = 4,
  kSwapReply = 5,
};

struct PushMessage {
  NodeId sender;

  friend bool operator==(const PushMessage&, const PushMessage&) = default;
};

struct PullRequest {
  NodeId sender;
  crypto::AuthChallenge challenge;

  friend bool operator==(const PullRequest& a, const PullRequest& b) {
    return a.sender == b.sender && a.challenge.r_a == b.challenge.r_a;
  }
};

struct PullReply {
  NodeId sender;
  crypto::AuthResponse auth;
  std::vector<NodeId> view;

  friend bool operator==(const PullReply& a, const PullReply& b) {
    return a.sender == b.sender && a.auth.r_b == b.auth.r_b &&
           a.auth.proof_b == b.auth.proof_b && a.view == b.view;
  }
};

/// The swap offer of an AuthConfirm. It reads like
/// std::optional<std::vector<NodeId>>, except that reset() keeps the
/// vector's capacity: the engine reuses one AuthConfirm for every exchange,
/// and most exchanges carry no offer.
class SwapOffer {
 public:
  SwapOffer() = default;
  /// Converting, like std::optional's: an initializer may spell a present
  /// offer as its vector.
  SwapOffer(std::vector<NodeId> ids) : present_(true), ids_(std::move(ids)) {}

  SwapOffer& operator=(std::vector<NodeId> ids) {
    ids_ = std::move(ids);
    present_ = true;
    return *this;
  }

  [[nodiscard]] bool has_value() const { return present_; }
  explicit operator bool() const { return present_; }
  /// Makes the offer present and empty; returns it for filling.
  std::vector<NodeId>& emplace() {
    ids_.clear();
    present_ = true;
    return ids_;
  }
  void reset() {
    ids_.clear();
    present_ = false;
  }

  [[nodiscard]] std::vector<NodeId>& operator*() { return ids_; }
  [[nodiscard]] const std::vector<NodeId>& operator*() const { return ids_; }
  [[nodiscard]] const std::vector<NodeId>* operator->() const { return &ids_; }

  friend bool operator==(const SwapOffer& a, const SwapOffer& b) {
    return a.present_ == b.present_ && (!a.present_ || a.ids_ == b.ids_);
  }

 private:
  bool present_ = false;
  std::vector<NodeId> ids_;  ///< empty unless present_
};

struct AuthConfirm {
  NodeId sender;
  crypto::AuthConfirm confirm;
  /// Present iff the initiator established mutual trust: half of its view
  /// (with a self-link inserted, Jelasity framework criterion 2).
  SwapOffer swap_offer;

  friend bool operator==(const AuthConfirm& a, const AuthConfirm& b) {
    return a.sender == b.sender && a.confirm.proof_a == b.confirm.proof_a &&
           a.swap_offer == b.swap_offer;
  }
};

struct SwapReply {
  NodeId sender;
  std::vector<NodeId> swap_half;

  friend bool operator==(const SwapReply&, const SwapReply&) = default;
};

using Message = std::variant<PushMessage, PullRequest, PullReply, AuthConfirm, SwapReply>;

[[nodiscard]] MsgType type_of(const Message& m);

/// Serializes a message with its type tag.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& m);

/// Allocation-free encode for hot paths: clears `out` (keeping capacity)
/// and serializes into it. In steady state — once `out` has grown to the
/// largest message it carries — this performs zero heap allocations.
void encode_into(const Message& m, std::vector<std::uint8_t>& out);

/// Parses a message; throws WireError on malformed input.
[[nodiscard]] Message decode(const std::vector<std::uint8_t>& bytes);
[[nodiscard]] Message decode(const std::uint8_t* data, std::size_t len);

/// Allocation-free decode for hot paths: parses into `out`, reusing the
/// held alternative's vector capacity when the wire type matches what `out`
/// already holds (the common round-trip case). On WireError `out` may be
/// left partially overwritten — callers must treat the message as dropped.
void decode_into(const std::uint8_t* data, std::size_t len, Message& out);

}  // namespace raptee::wire
