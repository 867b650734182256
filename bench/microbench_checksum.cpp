// Wall-clock microbenchmarks behind Table IV: the per-evaluation cost of
// CRC-CD's checksum (bit-serial LFSR, the tag-realistic form; byte-wise
// table; slicing-by-8 over packed words, the form the simulator's reader
// runs) against QCD's single bitwise complement.
#include <benchmark/benchmark.h>

#include "microbench_support.hpp"

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "core/qcd.hpp"
#include "crc/crc.hpp"

using namespace rfid;

namespace {

void BM_CrcSerial64BitId(benchmark::State& state) {
  const crc::CrcEngine engine(crc::crc32());
  common::Rng rng(1);
  const common::BitVec id = rng.bitvec(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.computeBits(id));
  }
}
BENCHMARK(BM_CrcSerial64BitId);

void BM_CrcTable64BitId(benchmark::State& state) {
  const crc::CrcEngine engine(crc::crc32());
  common::Rng rng(2);
  std::array<std::uint8_t, 8> id{};
  for (auto& b : id) {
    b = static_cast<std::uint8_t>(rng.below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.computeBytesTable(id));
  }
}
BENCHMARK(BM_CrcTable64BitId);

void BM_CrcWords64BitId(benchmark::State& state) {
  const crc::CrcEngine engine(crc::crc32());
  common::Rng rng(4);
  const common::BitVec id = rng.bitvec(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.computeWords(id.data(), id.size()));
  }
}
BENCHMARK(BM_CrcWords64BitId);

void BM_QcdComplement(benchmark::State& state) {
  // The tag-side QCD operation: complement the drawn l-bit integer.
  const std::uint64_t r = 0xA5;
  const std::uint64_t mask = 0xFF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(~r & mask);
  }
}
BENCHMARK(BM_QcdComplement);

void BM_QcdPreambleEncode(benchmark::State& state) {
  // Full preamble construction including the BitVec packaging used by the
  // simulator (an upper bound on the tag's real work).
  const core::QcdPreamble prm(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prm.encode(0xA5));
  }
}
BENCHMARK(BM_QcdPreambleEncode);

void BM_QcdInspect(benchmark::State& state) {
  // Reader-side Algorithm 1 on a superposed preamble.
  const core::QcdPreamble prm(8);
  const common::BitVec s = prm.encode(0xA5) | prm.encode(0x3C);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prm.inspect(s));
  }
}
BENCHMARK(BM_QcdInspect);

void BM_CrcSerialByIdLength(benchmark::State& state) {
  // O(l) scaling of the serial CRC (Table IV's complexity row).
  const crc::CrcEngine engine(crc::crc32());
  common::Rng rng(3);
  const common::BitVec id = rng.bitvec(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.computeBits(id));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CrcSerialByIdLength)->RangeMultiplier(2)->Range(16, 512)->Complexity(benchmark::oN);

}  // namespace

int main(int argc, char** argv) {
  return rfid::bench::microbenchMain(
      "microbench_checksum",
      "Table IV cost model: CRC-CD checksum (bit-serial, byte table and "
      "slicing-by-8) vs QCD's complement-based preamble encode/inspect",
      argc, argv);
}
