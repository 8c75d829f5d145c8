// A scripted command-line driver for the clinic network — the closest
// thing to "operating" the paper's system interactively. Reads commands
// from stdin (or runs a built-in demo script with --demo):
//
//   update <peer> <table_id> <patient_id> <attr> <value...>
//   insert <peer> <table_id> <patient_id> <medication> <note> <dosage>
//   delete <peer> <table_id> <patient_id>
//   read   <peer> <table_id>
//   source <peer> <table>          # print a local table
//   grant  <peer> <table_id> <attr> <grantee>   (revoke likewise)
//   entry  <table_id>              # on-chain metadata
//   audit  <table_id>
//   settle                         # run simulated time until quiescent
//   stats
//   help / quit
//
// Peers: doctor | patient | researcher. Tables: D13&D31 | D23&D32.
// Attributes: a0_patient_id a1_medication_name a2_clinical_data
//             a3_address a4_dosage a5_mechanism_of_action.
//
//   ./build/examples/medsync_cli --demo
//   echo "update doctor D13&D31 188 a4_dosage 300 mg" | the binary also
//   works as a filter reading commands from stdin.
//
// A second mode drives the seeded hospital-network generator instead of
// the clinic — the command-line replay handle the soak tests print when a
// seed fails (one command line, wrapped here):
//
//   ./build/examples/medsync_cli gen --seed 7 --peers 100 --depth 3
//       [--events 48] [--prefix N]

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "common/strings.h"
#include "core/audit.h"
#include "core/scenario.h"
#include "core/scenario_gen.h"
#include "core/workload.h"
#include "medical/records.h"

namespace {

using namespace medsync;
using relational::Value;

class Cli {
 public:
  bool Init() {
    core::ScenarioOptions options;
    auto scenario = core::ClinicScenario::Create(options);
    if (!scenario.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   scenario.status().ToString().c_str());
      return false;
    }
    clinic_ = std::move(*scenario);
    auto trace = [](const std::string& line) {
      std::printf("  | %s\n", line.c_str());
    };
    clinic_->doctor().SetTraceSink(trace);
    clinic_->patient().SetTraceSink(trace);
    clinic_->researcher().SetTraceSink(trace);
    std::printf("clinic network up: 3 peers, %zu chain nodes, contract %s\n",
                clinic_->node_count(), clinic_->contract().ToHex().c_str());
    return true;
  }

  core::Peer* PeerByName(const std::string& name) {
    if (name == "doctor") return &clinic_->doctor();
    if (name == "patient") return &clinic_->patient();
    if (name == "researcher") return &clinic_->researcher();
    std::printf("unknown peer '%s' (doctor|patient|researcher)\n",
                name.c_str());
    return nullptr;
  }

  /// Executes one command line; returns false on "quit".
  bool Execute(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::printf("%s", kHelp);
      return true;
    }
    if (cmd == "settle") {
      Status s = clinic_->SettleAll();
      std::printf("settle: %s (sim time %s)\n", s.ToString().c_str(),
                  FormatTimestamp(clinic_->simulator().Now()).c_str());
      return true;
    }
    if (cmd == "stats") {
      for (const char* name : {"doctor", "patient", "researcher"}) {
        core::Peer* peer = PeerByName(name);
        const core::Peer::Stats& s = peer->stats();
        std::printf(
            "%-11s proposed=%llu committed=%llu denied=%llu fetched=%llu "
            "acked=%llu cascades=%llu\n",
            name, (unsigned long long)s.updates_proposed,
            (unsigned long long)s.updates_committed,
            (unsigned long long)s.updates_denied,
            (unsigned long long)s.fetches_applied,
            (unsigned long long)s.acks_sent,
            (unsigned long long)s.cascades_proposed);
      }
      auto net = clinic_->network().stats();
      std::printf("network: %llu sent, %llu delivered, %llu dropped, "
                  "%llu bytes\n",
                  (unsigned long long)net.sent,
                  (unsigned long long)net.delivered,
                  (unsigned long long)net.dropped,
                  (unsigned long long)net.bytes);
      return true;
    }

    if (cmd == "update") {
      std::string peer_name, table, attr;
      int64_t id;
      in >> peer_name >> table >> id >> attr;
      std::string value;
      std::getline(in, value);
      core::Peer* peer = PeerByName(peer_name);
      if (!peer) return true;
      Status s = peer->UpdateSharedAttribute(
          table, {Value::Int(id)}, attr,
          Value::String(std::string(StripWhitespace(value))));
      std::printf("update: %s\n", s.ToString().c_str());
      return true;
    }
    if (cmd == "insert") {
      std::string peer_name, table, med, note, dosage;
      int64_t id;
      in >> peer_name >> table >> id >> med >> note;
      std::getline(in, dosage);
      core::Peer* peer = PeerByName(peer_name);
      if (!peer) return true;
      Status s = peer->InsertSharedRow(
          table, {Value::Int(id), Value::String(med), Value::String(note),
                  Value::String(std::string(StripWhitespace(dosage)))});
      std::printf("insert: %s\n", s.ToString().c_str());
      return true;
    }
    if (cmd == "delete") {
      std::string peer_name, table;
      int64_t id;
      in >> peer_name >> table >> id;
      core::Peer* peer = PeerByName(peer_name);
      if (!peer) return true;
      Status s = peer->DeleteSharedRow(table, {Value::Int(id)});
      std::printf("delete: %s\n", s.ToString().c_str());
      return true;
    }
    if (cmd == "read") {
      std::string peer_name, table;
      in >> peer_name >> table;
      core::Peer* peer = PeerByName(peer_name);
      if (!peer) return true;
      auto view = peer->ReadSharedTable(table);
      if (!view.ok()) {
        std::printf("read: %s\n", view.status().ToString().c_str());
      } else {
        std::printf("%s", view->ToAsciiTable().c_str());
      }
      return true;
    }
    if (cmd == "source") {
      std::string peer_name, table;
      in >> peer_name >> table;
      core::Peer* peer = PeerByName(peer_name);
      if (!peer) return true;
      auto snapshot = peer->database().Snapshot(table);
      if (!snapshot.ok()) {
        std::printf("source: %s\n", snapshot.status().ToString().c_str());
      } else {
        std::printf("%s", snapshot->ToAsciiTable().c_str());
      }
      return true;
    }
    if (cmd == "grant" || cmd == "revoke") {
      std::string peer_name, table, attr, grantee_name;
      in >> peer_name >> table >> attr >> grantee_name;
      core::Peer* peer = PeerByName(peer_name);
      core::Peer* grantee = PeerByName(grantee_name);
      if (!peer || !grantee) return true;
      auto s = peer->SubmitChangePermission(table, attr, grantee->address(),
                                            cmd == "grant");
      std::printf("%s: %s\n", cmd.c_str(),
                  s.ok() ? "submitted" : s.status().ToString().c_str());
      return true;
    }
    if (cmd == "entry") {
      std::string table;
      in >> table;
      auto entry = clinic_->Entry(table);
      std::printf("%s\n", entry.ok()
                              ? entry->DumpPretty().c_str()
                              : entry.status().ToString().c_str());
      return true;
    }
    if (cmd == "audit") {
      std::string table;
      in >> table;
      std::printf("%s",
                  core::RenderAuditTrail(
                      core::BuildAuditTrail(clinic_->node(0).blockchain(),
                                            clinic_->node(0).host(), table))
                      .c_str());
      return true;
    }
    std::printf("unknown command '%s' (try: help)\n", cmd.c_str());
    return true;
  }

  static constexpr const char* kHelp =
      "commands:\n"
      "  update <peer> <table_id> <id> <attr> <value...>\n"
      "  insert <peer> <table_id> <id> <med> <note> <dosage...>\n"
      "  delete <peer> <table_id> <id>\n"
      "  read <peer> <table_id> | source <peer> <table>\n"
      "  grant|revoke <authority-peer> <table_id> <attr> <grantee>\n"
      "  entry <table_id> | audit <table_id>\n"
      "  settle | stats | help | quit\n";

 private:
  std::unique_ptr<core::ClinicScenario> clinic_;
};

constexpr const char* kDemoScript[] = {
    "read patient D13&D31",
    "update doctor D13&D31 188 a4_dosage two tablets every 6h",
    "settle",
    "read patient D13&D31",
    "source patient D1",
    "update patient D13&D31 189 a4_dosage patient tries dosage",
    "settle",
    "grant doctor D13&D31 a4_dosage patient",
    "settle",
    "update patient D13&D31 189 a4_dosage now permitted",
    "settle",
    "source doctor D3",
    "audit D13&D31",
    "stats",
};

}  // namespace

// `gen` subcommand: expand a seed into a hospital network, replay its
// generated workload (optionally only a prefix), and print the spec
// summary, the run report, and the deterministic state fingerprint — the
// exact run a failing soak seed tells you to reproduce.
int RunGenMode(int argc, char** argv) {
  core::GenOptions gen;
  core::WorkloadOptions workload;
  gen.peers = 16;
  size_t prefix = SIZE_MAX;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      gen.seed = std::stoull(value);
      workload.seed = gen.seed * 31 + 1;
    } else if (flag == "--peers") {
      gen.peers = std::stoull(value);
    } else if (flag == "--depth") {
      gen.lens_depth = std::stoull(value);
    } else if (flag == "--events") {
      workload.events = std::stoull(value);
    } else if (flag == "--prefix") {
      prefix = std::stoull(value);
    } else if (flag == "--durable") {
      // Durable consumers make crash/restart events possible; the replay
      // handles printed by the soak tests pass --durable 1.
      if (value != "0") {
        gen.durable_root = StrCat("/tmp/medsync_cli_gen_", gen.seed);
        std::filesystem::remove_all(gen.durable_root);
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 1;
    }
  }

  const core::NetworkSpec spec = core::DescribeNetwork(gen);
  size_t providers = 0;
  for (const auto& peer : spec.peers) {
    if (peer.role == core::PeerRole::kProvider) ++providers;
  }
  std::printf("network: seed=%llu peers=%zu (%zu providers) tables=%zu "
              "lens_depth=%zu epoch=%lld\n",
              static_cast<unsigned long long>(spec.options.seed),
              spec.peers.size(), providers, spec.tables.size(),
              spec.options.lens_depth,
              static_cast<long long>(spec.epoch));
  const core::Schedule schedule = core::GenerateSchedule(spec, workload);
  std::printf("schedule: workload_seed=%llu events=%zu\n",
              static_cast<unsigned long long>(workload.seed),
              schedule.events.size());

  core::SoakReport report;
  Status run = core::RunGeneratedSoak(gen, workload, prefix, &report);
  std::printf("executed=%zu skipped=%zu chain_height=%llu\n", report.executed,
              report.skipped,
              static_cast<unsigned long long>(report.chain_height));
  std::printf("fingerprint=%s\n", report.fingerprint.c_str());
  if (!run.ok()) {
    std::printf("FAIL: %s\n", run.ToString().c_str());
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "gen") {
    return RunGenMode(argc, argv);
  }

  Cli cli;
  if (!cli.Init()) return 1;

  if (argc > 1 && std::string(argv[1]) == "--demo") {
    for (const char* line : kDemoScript) {
      std::printf("\n>> %s\n", line);
      if (!cli.Execute(line)) break;
    }
    return 0;
  }

  std::printf("%s", Cli::kHelp);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!cli.Execute(line)) break;
  }
  return 0;
}
