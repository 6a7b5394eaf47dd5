//===- support/Arena.h - Monotonic per-task bump allocator ------*- C++ -*-===//
///
/// \file
/// A monotonic block arena for short-lived exact-arithmetic scratch space.
/// The analysis driver's hot loops (Fourier-Motzkin elimination, rref,
/// feasibility probes) build and discard many small containers per task;
/// routing that churn through a per-thread arena makes the steady state
/// allocation-free and keeps concurrent `--batch` compiles off the global
/// allocator.
///
/// The discipline follows the "founding scope" model: the scope that founds
/// a computation (an ArenaScope on the stack) owns every allocation made
/// while it is active, and rewinds them all in O(1) on exit. Blocks are
/// kept warm across scopes, so after the first task on a thread the arena
/// never calls malloc again unless a task needs more memory than any
/// before it.
///
/// Containers backed by the arena (see support/SmallVec.h) must not outlive
/// the innermost ArenaScope that was active when they last grew.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_ARENA_H
#define ALP_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>

namespace alp {

/// A monotonic bump allocator over a chain of malloc'd blocks. Not
/// thread-safe; each thread uses its own instance (see ArenaScope).
class Arena {
  struct Block;

public:
  Arena() = default;
  ~Arena();
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Returns \p Size bytes aligned to \p Align. Never returns null; grows
  /// the block chain on demand. \p Align must be a power of two.
  void *allocate(size_t Size, size_t Align);

  /// A rewind point: everything allocated after mark() is reclaimed by
  /// rewind(). Blocks are retained for reuse, not freed.
  struct Mark {
    Block *B;
    size_t Used;
  };
  Mark mark() const { return {Cur, CurUsed}; }
  void rewind(Mark M) {
    Cur = M.B;
    CurUsed = M.Used;
  }

  /// The arena the calling thread is currently allocating from, or null
  /// when no ArenaScope is active (containers then fall back to the heap).
  static Arena *current();

  /// Installs \p A as the calling thread's current arena and returns the
  /// previous one. Pass null to disable arena allocation.
  static Arena *setCurrent(Arena *A);

  /// The calling thread's lazily-created scratch arena. Blocks stay warm
  /// for the lifetime of the thread.
  static Arena &threadLocal();

private:
  struct Block {
    Block *Next;
    size_t Size; // Usable payload bytes following this header.
  };

  Block *newBlock(size_t MinPayload);

  Block *Head = nullptr; // Chain of all blocks, in creation order.
  Block *Cur = nullptr;  // Block currently being bumped (null when empty).
  size_t CurUsed = 0;    // Bytes used in Cur.

  static constexpr size_t DefaultBlockBytes = 64 * 1024;
};

/// RAII scope that makes the calling thread's arena current and rewinds it
/// on destruction. Nests: an inner scope rewinds only its own allocations.
/// Everything allocated by SmallVec-backed containers inside the scope is
/// reclaimed wholesale when it ends, so only use a scope around code whose
/// results are scalars or plain structs (no linalg containers escaping).
class ArenaScope {
public:
  ArenaScope()
      : A(&Arena::threadLocal()), Prev(Arena::setCurrent(A)), M(A->mark()) {}
  ~ArenaScope() {
    A->rewind(M);
    Arena::setCurrent(Prev);
  }
  ArenaScope(const ArenaScope &) = delete;
  ArenaScope &operator=(const ArenaScope &) = delete;

private:
  Arena *A;
  Arena *Prev;
  Arena::Mark M;
};

/// Cumulative bytes handed out by all arenas in this process (monotonic;
/// rewinding does not subtract). Feeds the `linalg.arena_bytes` gauge.
uint64_t arenaBytesAllocated();

/// Cumulative number of times a SmallVec-backed container spilled to the
/// global heap because no arena was active. Feeds the `linalg.allocs`
/// gauge; zero deltas prove an allocation-free steady state.
uint64_t containerHeapSpills();

/// Accounting hooks used by SmallVec; not for general use.
namespace detail {
void noteArenaBytes(size_t N);
void noteContainerHeapSpill();
} // namespace detail

} // namespace alp

#endif // ALP_SUPPORT_ARENA_H
