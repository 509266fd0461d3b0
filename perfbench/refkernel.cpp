// stq-refkernel: a fixed reference computation that measures how fast the
// host runs right now.
//
// It does the kind of work a checker does -- builds text, splits it into
// tokens, interns them in a hash map, builds a tree of heap nodes and walks
// it -- on generated input that never changes. It is built from the
// benchmark's own sources and links nothing of stq, so no change to the
// program moves it; run between the operations the benchmark times, it
// lets their CPU times be stated at one reference speed (see run.py).
//
// Prints its own CPU seconds (process CPU clock, start-up excluded) and a
// checksum of the walk, which is the same on every run.

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

struct Node {
  uint32_t Tok = 0;
  std::vector<std::unique_ptr<Node>> Kids;
};

double cpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return T.tv_sec + T.tv_nsec * 1e-9;
}

constexpr int Words = 500000;

} // namespace

int main() {
  double Start = cpuSeconds();
  static const char *Vocabulary[] = {"int", "pos",   "neg", "return", "if",
                                     "while", "x",   "y",   "f",      "g",
                                     "+",   "*",     "=",   ";",      "(",
                                     ")",   "{",     "}"};
  constexpr uint64_t VocabularySize = sizeof(Vocabulary) / sizeof(*Vocabulary);
  uint64_t X = 88172645463325252ull; // xorshift64 state
  std::string Text;
  for (int I = 0; I < Words; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Text += Vocabulary[X % VocabularySize];
    if (X % 5 == 0)
      Text += std::to_string(X % 1000);
    Text += ' ';
  }

  std::unordered_map<std::string, uint32_t> Interned;
  std::vector<uint32_t> Tokens;
  for (size_t P = 0; P < Text.size();) {
    size_t Q = Text.find(' ', P);
    auto It = Interned.emplace(Text.substr(P, Q - P), Interned.size()).first;
    Tokens.push_back(It->second);
    P = Q + 1;
  }

  auto Root = std::make_unique<Node>();
  std::vector<Node *> Open{Root.get()};
  for (uint32_t T : Tokens) {
    auto N = std::make_unique<Node>();
    N->Tok = T;
    Node *Raw = N.get();
    Open.back()->Kids.push_back(std::move(N));
    if (T % 7 == 0)
      Open.push_back(Raw);
    else if (T % 11 == 0 && Open.size() > 1)
      Open.pop_back();
  }

  uint64_t Sum = 0;
  std::vector<Node *> Walk{Root.get()};
  while (!Walk.empty()) {
    Node *N = Walk.back();
    Walk.pop_back();
    Sum = Sum * 31 + N->Tok;
    for (auto &K : N->Kids)
      Walk.push_back(K.get());
  }
  Root.reset();
  std::printf("%.9f %llu\n", cpuSeconds() - Start,
              static_cast<unsigned long long>(Sum));
  return 0;
}
