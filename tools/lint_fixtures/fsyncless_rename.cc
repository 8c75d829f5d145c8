// medsync-sca fixture: violates MS003 (fwrite/rename in a file not on
// tools/durability_allowlist.txt). Never compiled.
#include <cstdio>

void TornWriteWaitingToHappen(const char* tmp, const char* path) {
  FILE* file = fopen(tmp, "wb");
  char byte = 1;
  fwrite(&byte, 1, 1, file);  // MS003: no fsync protocol in this file
  fclose(file);
  std::rename(tmp, path);  // MS003
}
