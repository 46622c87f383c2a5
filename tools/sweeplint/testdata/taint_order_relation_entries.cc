// determinism-taint, positive: a range-for over Relation::entries(), the
// flat CountTable, whose row order is an artefact of the mutation history
// (an erase moves the last row), folded through a non-commutative
// accumulation into a fingerprint. The table type is recognized through
// the callee's declared return type; no std container is involved. (The
// syntactic unordered-iteration check fires on the loop as well.)
struct Tuple {
  unsigned long Hash() const { return 0; }
};

class CountTable {
 public:
  struct Entry {
    Tuple first;
    long second;
  };
  const Entry* begin() const { return nullptr; }
  const Entry* end() const { return nullptr; }
};

class Relation {
 public:
  const CountTable& entries() const { return table_; }

 private:
  CountTable table_;
};

struct Harness {
  unsigned long Fingerprint() const {
    unsigned long h = 0;
    for (const auto& [t, c] : rel_.entries()) {
      h = h * 31 + t.Hash();
    }
    return h;
  }
  Relation rel_;
};
