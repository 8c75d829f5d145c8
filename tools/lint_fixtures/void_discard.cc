// medsync-sca fixture: violates MS005 ((void) cast of a call expression).
// Never compiled.
struct Status {
  static Status OK();
};
Status DoWork();

struct Worker {
  Status Run();
};

void DropsStatuses(Worker* worker) {
  (void)DoWork();  // MS005
  Worker local;
  (void)local.Run();  // MS005
  (void)worker->Run();  // MS005
  (void)::DoWork();  // MS005: a global-scope call is still a call

  // Legal: (void) on a plain variable is the assert-guard idiom.
  int used_only_in_asserts = 0;
  (void)used_only_in_asserts;
}
