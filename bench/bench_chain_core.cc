// Chain substrate costs: hashing, Merkle commitment/proofs, PoW sealing by
// difficulty, PoA sealing, and full block validation. The PoW sweep shows
// the expected 2^bits growth; PoA sealing is constant — the quantitative
// backing for the paper's private-chain recommendation (Section IV-3).
// BM_FindTransaction shows canonical-history lookups staying flat in the
// history length.
//
// The *_Threaded variants run the same work on a worker pool (the pool size
// is the benchmark argument) and report `speedup_vs_serial`, measured
// against an in-process serial baseline on identical inputs. The parallel
// paths are deterministic, so the outputs being compared are identical.

#include <benchmark/benchmark.h>

#include <chrono>

#include "chain/blockchain.h"
#include "chain/sealer.h"
#include "common/strings.h"
#include "common/threading/thread_pool.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "metrics_counters.h"

namespace {

using namespace medsync;
using namespace medsync::chain;

/// Wall-clock seconds of `fn()`, for in-benchmark serial baselines.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Transaction MakeTx(uint64_t nonce) {
  static const crypto::KeyPair* key =
      new crypto::KeyPair(crypto::KeyPair::FromSeed("bench-sender"));
  Transaction tx;
  tx.from = key->address();
  tx.to = crypto::KeyPair::FromSeed("bench-target").address();
  tx.nonce = nonce;
  tx.method = "request_update";
  Json params = Json::MakeObject();
  params.Set("table_id", StrCat("T", nonce));
  params.Set("digest", std::string(64, 'a'));
  tx.params = std::move(params);
  tx.Sign(*key);
  return tx;
}

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Range(64, 1 << 20);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<crypto::Hash256> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(crypto::Sha256::Hash(StrCat("leaf", i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::ComputeRoot(leaves));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleRoot)->Range(1, 4096);

void BM_MerkleProofVerify(benchmark::State& state) {
  std::vector<crypto::Hash256> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(crypto::Sha256::Hash(StrCat("leaf", i)));
  }
  crypto::MerkleTree tree(leaves);
  crypto::MerkleProof proof = tree.BuildProof(leaves.size() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::VerifyProof(
        leaves[leaves.size() / 2], proof, tree.root()));
  }
}
BENCHMARK(BM_MerkleProofVerify)->Range(2, 4096);

void BM_TransactionSignVerify(benchmark::State& state) {
  Transaction tx = MakeTx(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.VerifySignature());
  }
}
BENCHMARK(BM_TransactionSignVerify);

void BM_PowSeal(benchmark::State& state) {
  // Expected cost doubles per difficulty bit; this is why a 12 s public-
  // chain block interval exists at all.
  metrics::MetricsRegistry registry;
  PowSealer sealer(static_cast<uint32_t>(state.range(0)));
  sealer.set_metrics(&registry);
  uint64_t salt = 0;
  for (auto _ : state) {
    Block block;
    block.header.height = 1;
    block.header.timestamp = static_cast<Micros>(++salt);
    block.header.merkle_root = crypto::Sha256::Hash(StrCat("salt", salt));
    benchmark::DoNotOptimize(sealer.Seal(&block));
  }
  state.counters["difficulty_bits"] = static_cast<double>(state.range(0));
  bench::ExportMetrics(state, registry);
}
BENCHMARK(BM_PowSeal)->DenseRange(4, 16, 4);

void BM_PoaSeal(benchmark::State& state) {
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  PoaSealer sealer({key->address()}, key);
  uint64_t salt = 0;
  for (auto _ : state) {
    Block block;
    block.header.height = 1;
    block.header.timestamp = static_cast<Micros>(++salt);
    block.header.merkle_root = crypto::Sha256::Hash(StrCat("salt", salt));
    benchmark::DoNotOptimize(sealer.Seal(&block));
  }
}
BENCHMARK(BM_PoaSeal);

void BM_BlockValidate(benchmark::State& state) {
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  auto sealer = PoaSealer({key->address()}, key);
  Block genesis = Blockchain::MakeGenesis(0);
  metrics::MetricsRegistry registry;
  Blockchain chain(genesis, &sealer);
  chain.set_metrics(&registry);

  Block block;
  block.header.height = 1;
  block.header.parent = genesis.header.Hash();
  block.header.timestamp = 1;
  for (int64_t i = 0; i < state.range(0); ++i) {
    block.transactions.push_back(MakeTx(static_cast<uint64_t>(i)));
  }
  block.header.merkle_root = block.ComputeMerkleRoot();
  IgnoreStatusForTest(sealer.Seal(&block));

  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.ValidateStructure(block));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  bench::ExportMetrics(state, registry);
}
BENCHMARK(BM_BlockValidate)->Range(1, 256);

void BM_ChainAppendAndIntegrity(benchmark::State& state) {
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  for (auto _ : state) {
    state.PauseTiming();
    auto sealer = PoaSealer({key->address()}, key);
    Block genesis = Blockchain::MakeGenesis(0);
    Blockchain chain(genesis, &sealer);
    state.ResumeTiming();
    const Block* parent = &chain.genesis();
    for (int64_t h = 1; h <= state.range(0); ++h) {
      Block block;
      block.header.height = static_cast<uint64_t>(h);
      block.header.parent = parent->header.Hash();
      block.header.timestamp = h;
      block.transactions.push_back(MakeTx(static_cast<uint64_t>(h)));
      block.header.merkle_root = block.ComputeMerkleRoot();
      IgnoreStatusForTest(sealer.Seal(&block));
      benchmark::DoNotOptimize(chain.AddBlock(std::move(block)));
      parent = &chain.head();
    }
    benchmark::DoNotOptimize(chain.VerifyIntegrity());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChainAppendAndIntegrity)->Range(8, 128);

// Canonical-history lookup, as gossip and block building do per message:
// the chain indexes its canonical transactions, so the cost per lookup stays
// flat as the history grows instead of re-hashing every transaction.
void BM_FindTransaction(benchmark::State& state) {
  constexpr size_t kTxsPerBlock = 16;
  const size_t history = static_cast<size_t>(state.range(0));
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  PoaSealer sealer({key->address()}, key);
  Blockchain chain(Blockchain::MakeGenesis(0), &sealer);
  std::vector<crypto::Hash256> ids;
  for (uint64_t h = 1; ids.size() < history; ++h) {
    Block block;
    block.header.height = h;
    block.header.parent = chain.head_hash();
    block.header.timestamp = static_cast<Micros>(h);
    for (size_t i = 0; i < kTxsPerBlock && ids.size() < history; ++i) {
      block.transactions.push_back(MakeTx(ids.size()));
      ids.push_back(block.transactions.back().Id());
    }
    block.header.merkle_root = block.ComputeMerkleRoot();
    IgnoreStatusForTest(sealer.Seal(&block));
    IgnoreStatusForTest(chain.AddBlock(std::move(block)));
  }
  size_t next = 0;
  for (auto _ : state) {
    const Transaction* tx = nullptr;
    uint64_t height = 0;
    benchmark::DoNotOptimize(chain.FindTransaction(ids[next], &tx, &height));
    benchmark::DoNotOptimize(tx);
    next = (next + 1) % ids.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindTransaction)->Arg(64)->Arg(1024)->Arg(16384);

// ---------------------------------------------------------------------------
// Threaded variants. Argument = worker-pool size; `speedup_vs_serial` is the
// serial wall time divided by the threaded wall time on identical inputs.

void BM_MerkleRoot_Threaded(benchmark::State& state) {
  const auto leaf_count = static_cast<size_t>(state.range(0));
  threading::ThreadPool pool(static_cast<size_t>(state.range(1)));
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(leaf_count);
  for (size_t i = 0; i < leaf_count; ++i) {
    leaves.push_back(crypto::Sha256::Hash(StrCat("leaf", i)));
  }
  constexpr int kBaselineReps = 50;
  double serial_seconds = TimeSeconds([&] {
    for (int rep = 0; rep < kBaselineReps; ++rep) {
      benchmark::DoNotOptimize(crypto::MerkleTree::ComputeRoot(leaves));
    }
  }) / kBaselineReps;
  double threaded_seconds = 0;
  for (auto _ : state) {
    threaded_seconds += TimeSeconds([&] {
      benchmark::DoNotOptimize(crypto::MerkleTree::ComputeRoot(leaves, &pool));
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["pool_size"] = static_cast<double>(state.range(1));
  state.counters["speedup_vs_serial"] =
      serial_seconds / (threaded_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MerkleRoot_Threaded)
    ->ArgsProduct({{1024, 16384}, {1, 2, 4, 8}});

void BM_PowSeal_Threaded(benchmark::State& state) {
  // Fixed difficulty; the parallel search claims nonce chunks in order and
  // returns the same (lowest) nonce the serial scan finds, so both runs do
  // comparable work. A batch of salts averages over nonce-search luck.
  constexpr uint32_t kBits = 12;
  constexpr int kSalts = 8;
  threading::ThreadPool pool(static_cast<size_t>(state.range(0)));
  PowSealer serial(kBits);
  PowSealer threaded(kBits, &pool);
  auto make_block = [](int salt) {
    Block block;
    block.header.height = 1;
    block.header.timestamp = static_cast<Micros>(salt + 1);
    block.header.merkle_root = crypto::Sha256::Hash(StrCat("tsalt", salt));
    return block;
  };
  double serial_seconds = TimeSeconds([&] {
    for (int s = 0; s < kSalts; ++s) {
      Block block = make_block(s);
      benchmark::DoNotOptimize(serial.Seal(&block));
    }
  });
  double threaded_seconds = 0;
  for (auto _ : state) {
    threaded_seconds += TimeSeconds([&] {
      for (int s = 0; s < kSalts; ++s) {
        Block block = make_block(s);
        benchmark::DoNotOptimize(threaded.Seal(&block));
      }
    });
  }
  state.counters["pool_size"] = static_cast<double>(state.range(0));
  state.counters["speedup_vs_serial"] =
      serial_seconds / (threaded_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PowSeal_Threaded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_BlockValidate_Threaded(benchmark::State& state) {
  const auto tx_count = state.range(0);
  threading::ThreadPool pool(static_cast<size_t>(state.range(1)));
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  auto sealer = PoaSealer({key->address()}, key);
  Block genesis = Blockchain::MakeGenesis(0);
  Blockchain serial_chain(genesis, &sealer);
  Blockchain threaded_chain(genesis, &sealer, nullptr, &pool);

  Block block;
  block.header.height = 1;
  block.header.parent = genesis.header.Hash();
  block.header.timestamp = 1;
  for (int64_t i = 0; i < tx_count; ++i) {
    block.transactions.push_back(MakeTx(static_cast<uint64_t>(i)));
  }
  block.header.merkle_root = block.ComputeMerkleRoot();
  IgnoreStatusForTest(sealer.Seal(&block));

  constexpr int kBaselineReps = 20;
  double serial_seconds = TimeSeconds([&] {
    for (int rep = 0; rep < kBaselineReps; ++rep) {
      benchmark::DoNotOptimize(serial_chain.ValidateStructure(block));
    }
  }) / kBaselineReps;
  double threaded_seconds = 0;
  for (auto _ : state) {
    threaded_seconds += TimeSeconds([&] {
      benchmark::DoNotOptimize(threaded_chain.ValidateStructure(block));
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["pool_size"] = static_cast<double>(state.range(1));
  state.counters["speedup_vs_serial"] =
      serial_seconds / (threaded_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BlockValidate_Threaded)
    ->ArgsProduct({{16, 64, 256}, {1, 2, 4, 8}});

}  // namespace
