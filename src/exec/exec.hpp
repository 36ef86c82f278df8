// Umbrella header for raptee::exec — the deterministic parallel execution
// subsystem.
//
// Layers (each usable on its own):
//   thread_pool.hpp — ThreadPool: one loop at a time, its chunks claimed
//                     from one shared cursor by the workers and the caller
//   parallel.hpp    — parallel_map over a pool (index-sliced, bit-stable)
//
// Everything multi-core in the repo rides on these two files: the scenario
// Runner fans repetitions / batch cells / grid cells out as one task per
// run, and sim::Engine's sharded round phases partition alive nodes across
// workers. Determinism is preserved by construction: tasks own their output
// slots and their own Rng streams (Rng::fork / Rng::split, common/rng.hpp),
// so thread count and scheduling decide wall-clock only — never bytes.
#pragma once

#include "exec/parallel.hpp"      // IWYU pragma: export
#include "exec/thread_pool.hpp"   // IWYU pragma: export
