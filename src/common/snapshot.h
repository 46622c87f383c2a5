// Declared state: each class the schedule explorer rewinds states its
// members once, and snapshot copy, restore and per-member diff derive
// from that one statement.
//
// A class lists its mutable members in an ordinary method template:
//
//   template <class V>
//   void VisitState(V& v) {
//     SWEEP_STATE_CLASS(v, DataSource);
//     SWEEP_STATE_HOOK(v, store_, StoreHook{});
//     SWEEP_STATE(v, log_);
//     SWEEP_STATE(v, queries_answered_);
//   }
//
// SWEEP_STATE hands the visitor the member together with its own
// spelling, so the name the effect oracle reports cannot drift from the
// member it describes, and SWEEP_STATE_CLASS fails to compile unless it
// names the enclosing class. A plain member is copied into the snapshot,
// assigned back on restore and compared with == by the diff. A member
// whose restore is not a plain copy names a hook instead: an object with
//
//   S Save(const T& live) const;
//   void Restore(T& live, const S& saved) const;
//
// and optionally
//
//   void Diff(const T& live, const S& saved, EffectAtom atom,
//             std::vector<EffectAtom>* out) const;
//
// which appends `atom` (or per-part variants of it) for what changed.
// Without Diff the hook's member diffs as one atom, Save(live) != saved.
//
// Every other non-static data member carries
//
//   SWEEP_SNAPSHOT_EXEMPT("immutable topology, fixed at construction")
//   const std::vector<int>& source_sites_;
//
// with a rationale of at least 8 characters. sweeplint's
// snapshot-completeness check machine-checks the split: each member is
// named in VisitState or exempt, never both. Exempt only what genuinely
// needs no rewinding: immutable configuration, wiring to other declared
// components (each of which declares its own state), or observers that
// outlive the exploration. The rationale is reviewed by humans, not by
// the tool, so say why restoring without the member is sound.
//
// Under clang the exemption expands to a [[clang::annotate]] attribute so
// the libclang frontend sees it in the AST after preprocessing; under
// other compilers it expands to nothing and sweeplint's bundled micro
// frontend reads the macro spelling from the source instead. The two
// frontends agree on the model by construction (see
// tools/sweeplint/model.py).

#ifndef SWEEPMV_COMMON_SNAPSHOT_H_
#define SWEEPMV_COMMON_SNAPSHOT_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/check.h"

#if defined(__clang__)
#define SWEEP_SNAPSHOT_EXEMPT(why) \
  [[clang::annotate("sweeplint:snapshot-exempt:" why)]]
#else
#define SWEEP_SNAPSHOT_EXEMPT(why)
#endif

// Opens a VisitState body: names the declaring class for the diff's
// effect atoms.
#define SWEEP_STATE_CLASS(v, Cls)                                      \
  static_assert(std::is_same_v<std::remove_cvref_t<decltype(*this)>,   \
                               Cls>,                                   \
                "SWEEP_STATE_CLASS must name the enclosing class");    \
  (v).Class(#Cls)

// One declared member, copied, assigned and compared as a whole.
#define SWEEP_STATE(v, member) (v)(#member, member)

// One declared member whose save, restore and diff go through `hook`.
#define SWEEP_STATE_HOOK(v, member, hook) (v)(#member, member, hook)

namespace sweepmv {

// Identity of one state member for the effect-set soundness oracle:
// (declaring class, member name, site). `site == -1` means global (one
// instance, e.g. UpdateIdGenerator::next_). Both strings come from
// stringized spellings, so they are literals that outlive every atom.
struct EffectAtom {
  const char* cls = "";
  const char* member = "";
  int site = -1;
};

// Copies of the members one or more VisitState walks visited, in visit
// order. Only a walk over the same objects in the same order can read it
// back. Move-only.
class StateSnapshot {
 public:
  StateSnapshot() = default;
  StateSnapshot(StateSnapshot&&) noexcept = default;
  StateSnapshot& operator=(StateSnapshot&&) noexcept = default;

  // Number of saved members.
  size_t size() const { return slots_.size(); }

 private:
  friend class StateVisitor;

  struct Slot {
    virtual ~Slot() = default;
  };
  template <class S>
  struct Held final : Slot {
    explicit Held(S v) : value(std::move(v)) {}
    S value;
  };

  std::vector<std::unique_ptr<Slot>> slots_;
};

// The one visitor every VisitState is instantiated with outside tests:
// saves, restores or diffs, depending on how it was made.
class StateVisitor {
 public:
  static constexpr size_t kAllSlots = static_cast<size_t>(-1);

  // Appends a copy of every visited member to `out`.
  static StateVisitor Saver(StateSnapshot* out) {
    return StateVisitor(Mode::kSave, out, nullptr, kAllSlots, nullptr);
  }
  // Assigns every visited member from `in`, reading slots in the order a
  // Saver appended them. With `only` set, restores just the member at
  // that slot and leaves the others as they are (tests use this to change
  // exactly one declared member).
  static StateVisitor Restorer(const StateSnapshot& in,
                               size_t only = kAllSlots) {
    return StateVisitor(Mode::kRestore, nullptr, &in, only, nullptr);
  }
  // Appends to `out` an atom for every visited member that differs from
  // its copy in `in`.
  static StateVisitor Differ(const StateSnapshot& in,
                             std::vector<EffectAtom>* out) {
    return StateVisitor(Mode::kDiff, nullptr, &in, kAllSlots, out);
  }

  // Walks obj's declaration. `site` keys the diff's atoms (-1 = global).
  template <class C>
  void Visit(C& obj, int site) {
    site_ = site;
    cls_ = nullptr;
    obj.VisitState(*this);
  }

  // A restore or diff must consume exactly the snapshot it reads.
  void Finish() const {
    SWEEP_CHECK_MSG(mode_ == Mode::kSave || next_ == in_->slots_.size(),
                    "snapshot has more members than the declaration");
  }

  // --- the VisitState protocol (via the SWEEP_STATE* macros) ------------

  void Class(const char* name) { cls_ = name; }

  template <class T>
  void operator()(const char* member, T& value) {
    switch (mode_) {
      case Mode::kSave:
        Push<T>(value);
        return;
      case Mode::kRestore: {
        const bool selected = Selected();
        const T& saved = Next<T>();
        if (selected) value = saved;
        return;
      }
      case Mode::kDiff:
        if (!(Next<T>() == value)) diff_->push_back(Atom(member));
        return;
    }
  }

  template <class T, class Hook>
  void operator()(const char* member, T& value, const Hook& hook) {
    using S = std::remove_cvref_t<decltype(hook.Save(value))>;
    switch (mode_) {
      case Mode::kSave:
        Push<S>(hook.Save(value));
        return;
      case Mode::kRestore: {
        const bool selected = Selected();
        const S& saved = Next<S>();
        if (selected) hook.Restore(value, saved);
        return;
      }
      case Mode::kDiff: {
        const S& saved = Next<S>();
        if constexpr (requires {
                        hook.Diff(value, saved, Atom(member), diff_);
                      }) {
          hook.Diff(value, saved, Atom(member), diff_);
        } else if (!(hook.Save(value) == saved)) {
          diff_->push_back(Atom(member));
        }
        return;
      }
    }
  }

 private:
  enum class Mode { kSave, kRestore, kDiff };

  StateVisitor(Mode mode, StateSnapshot* out, const StateSnapshot* in,
               size_t only, std::vector<EffectAtom>* diff)
      : mode_(mode), out_(out), in_(in), only_(only), diff_(diff) {}

  template <class S>
  void Push(S value) {
    out_->slots_.push_back(
        std::make_unique<StateSnapshot::Held<S>>(std::move(value)));
  }

  bool Selected() const { return only_ == kAllSlots || only_ == next_; }

  template <class S>
  const S& Next() {
    SWEEP_CHECK_MSG(next_ < in_->slots_.size(),
                    "snapshot has fewer members than the declaration");
    const StateSnapshot::Slot& slot = *in_->slots_[next_++];
    // A walk that drifted out of step with the saving walk fails loudly
    // instead of misreading memory.
    SWEEP_CHECK_MSG(typeid(slot) == typeid(StateSnapshot::Held<S>),
                    "snapshot member type differs from the declaration");
    return static_cast<const StateSnapshot::Held<S>&>(slot).value;
  }

  EffectAtom Atom(const char* member) const {
    SWEEP_CHECK_MSG(cls_ != nullptr,
                    "VisitState must open with SWEEP_STATE_CLASS");
    return EffectAtom{cls_, member, site_};
  }

  Mode mode_;
  StateSnapshot* out_;
  const StateSnapshot* in_;
  size_t only_;
  std::vector<EffectAtom>* diff_;
  size_t next_ = 0;
  const char* cls_ = nullptr;
  int site_ = -1;
};

}  // namespace sweepmv

#endif  // SWEEPMV_COMMON_SNAPSHOT_H_
