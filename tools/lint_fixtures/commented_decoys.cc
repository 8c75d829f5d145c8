// medsync-sca fixture: every banned pattern below lives inside a
// comment or a literal, so NO rule may fire on this file. Each decoy
// targets a stripping blind spot: plain comments, block comments,
// backslash-continued line comments, plain strings, and raw strings.
#include <string>

// Commented-out wall-clock code must not trip MS002:
//   auto now = std::chrono::system_clock::now();
//   int noise = rand();

/* Block-commented discard must not trip MS005:
   (void) DangerousCall();
   and neither must a block-commented raw socket: socket(AF_INET, 0, 0);
*/

// A line comment continued with a backslash hides its next line too: \
   (void) StillInsideTheComment(); std::chrono::system_clock::now();

int Decoys() {
  // The banned tokens below are DATA, not code.
  std::string plain =
      "(void) NotACall(); rand(); std::chrono::system_clock::now();";
  std::string raw = R"lint(
      (void) NotACallEither();
      time(nullptr); srand(42);
      std::thread worker;  // even "commented" code inside a raw string
  )lint";
  return static_cast<int>(plain.size() + raw.size());
}
