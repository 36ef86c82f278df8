// View-poisoned trusted-node injection (paper §VI-B).
//
// The adversary purchases genuine SGX devices, boots the *authentic*
// RAPTEE enclave on them inside a Byzantine-only network — so their initial
// views contain exclusively Byzantine IDs — and then releases them into the
// real system, hoping they spread faulty IDs to real trusted nodes over
// trusted exchanges.
//
// Crucially, these nodes run honest code (the enclave guarantees it): the
// adversary controls only their bootstrap input. They are therefore
// constructed via the regular core::NodeFactory as NodeKind::kPoisonedTrusted
// with a poisoned_bootstrap() view.
#pragma once

#include <vector>

#include "adversary/byzantine.hpp"
#include "common/types.hpp"

namespace raptee::adversary {

/// The bootstrap view a trusted device ends up with after the adversary
/// quarantines it in a Byzantine-only network: `view_size` faulty IDs.
[[nodiscard]] inline std::vector<NodeId> poisoned_bootstrap(Coordinator& coordinator,
                                                            std::size_t view_size) {
  std::vector<NodeId> view;
  coordinator.faulty_view(view_size, view);
  return view;
}

}  // namespace raptee::adversary
