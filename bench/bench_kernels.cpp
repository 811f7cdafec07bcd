// Substrate throughput benchmarks (google-benchmark): GEMM (all transpose
// combinations), conv2d forward/backward, batch norm, and the thread-pool
// scaling that stands in for the Waggle node's 4+4 cores.
//
// Each compute benchmark exports a GFLOPS counter (rate over wall time, the
// honest metric when the pool keeps multiple threads busy). Besides the
// console table, a machine-readable copy of every run is written to
// BENCH_kernels.json in the working directory so perf regressions can be
// diffed across commits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>
#include <random>

#include "bench_json.hpp"
#include "tensor/convert.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/quant.hpp"

namespace {

using namespace edgetrain;

void set_flops(benchmark::State& state, double flops_per_iter) {
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * flops_per_iter));
  state.counters["GFLOPS"] =
      benchmark::Counter(flops_per_iter * static_cast<double>(state.iterations()) * 1e-9,
                         benchmark::Counter::kIsRate);
}

void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  std::mt19937 rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(false, false, n, n, n, 1.0F, a.data(), b.data(), 0.0F,
              c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->UseRealTime();

// The packed kernels specialise per transpose combination; benchmark each
// so a regression in one packing path shows up. Arg encodes (trans_a,
// trans_b) as 2*ta + tb.
void BM_GemmTrans(benchmark::State& state) {
  const bool ta = (state.range(0) & 2) != 0;
  const bool tb = (state.range(0) & 1) != 0;
  const std::int64_t n = 192;
  std::mt19937 rng(6);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(ta, tb, n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_GemmTrans)->DenseRange(0, 3)->UseRealTime();

void BM_Conv2dForward(benchmark::State& state) {
  const auto channels = state.range(0);
  std::mt19937 rng(2);
  Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  Tensor w = Tensor::randn(Shape{channels, channels, 3, 3}, rng);
  const ops::ConvParams p{1, 1};
  for (auto _ : state) {
    Tensor y = ops::conv2d_forward(x, w, Tensor{}, p);
    benchmark::DoNotOptimize(y.data());
  }
  set_flops(state,
            2.0 * static_cast<double>(channels) * channels * 9 * 32 * 32);
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32)->UseRealTime();

void BM_Conv2dBackward(benchmark::State& state) {
  const auto channels = state.range(0);
  std::mt19937 rng(3);
  Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  Tensor w = Tensor::randn(Shape{channels, channels, 3, 3}, rng);
  Tensor gy = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  const ops::ConvParams p{1, 1};
  for (auto _ : state) {
    ops::Conv2dGrads grads = ops::conv2d_backward(gy, x, w, p, false);
    benchmark::DoNotOptimize(grads.grad_x.data());
  }
  // Backward = two GEMMs of the forward's shape (dX and dW).
  set_flops(state,
            4.0 * static_cast<double>(channels) * channels * 9 * 32 * 32);
}
BENCHMARK(BM_Conv2dBackward)->Arg(8)->Arg(16)->Arg(32)->UseRealTime();

// Batch-1 shapes of ResNet-18's layer 4 at 64x64 input (512 channels at
// 2x2), on one compute thread as the step benchmark runs them. Each conv is
// a skinny GEMM that should be bound by streaming its weights: A_GBps is
// the rate at which op(A) -- the weights, or their transpose -- is read.
void BM_GemmLayer4(benchmark::State& state, bool ta, bool tb, std::int64_t m,
                   std::int64_t n, std::int64_t k) {
  ThreadPool::set_global_threads(1);
  std::mt19937 rng(8);
  Tensor a = Tensor::randn(Shape{m * k}, rng);
  Tensor b = Tensor::randn(Shape{k * n}, rng);
  Tensor c = Tensor::zeros(Shape{m * n});
  for (auto _ : state) {
    ops::gemm(ta, tb, m, n, k, 1.0F, a.data(), b.data(), 0.0F, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  ThreadPool::set_global_threads(0);
  set_flops(state, 2.0 * static_cast<double>(m) * n * k);
  state.counters["A_GBps"] = benchmark::Counter(
      4e-9 * static_cast<double>(m) * k *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
// Conv forward, its input gradient and its weight gradient.
BENCHMARK_CAPTURE(BM_GemmLayer4, fwd_512x4x4608, false, false, 512, 4, 4608)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmLayer4, dx_4608x4x512_ta, true, false, 4608, 4, 512)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmLayer4, dw_512x4608x4_tb, false, true, 512, 4608, 4)
    ->UseRealTime();

// A whole layer-4 3x3 conv, 512 -> 512 at 2x2, forward or backward
// (im2col/col2im included), on one thread.
void BM_Conv2dLayer4(benchmark::State& state, bool backward) {
  ThreadPool::set_global_threads(1);
  std::mt19937 rng(9);
  Tensor x = Tensor::randn(Shape{1, 512, 2, 2}, rng);
  Tensor w = Tensor::randn(Shape{512, 512, 3, 3}, rng);
  Tensor gy = Tensor::randn(Shape{1, 512, 2, 2}, rng);
  const ops::ConvParams p{1, 1};
  for (auto _ : state) {
    if (backward) {
      ops::Conv2dGrads grads = ops::conv2d_backward(gy, x, w, p, false);
      benchmark::DoNotOptimize(grads.grad_x.data());
    } else {
      Tensor y = ops::conv2d_forward(x, w, Tensor{}, p);
      benchmark::DoNotOptimize(y.data());
    }
  }
  ThreadPool::set_global_threads(0);
  // Backward = two GEMMs of the forward's shape (dX and dW).
  set_flops(state, (backward ? 4.0 : 2.0) * 512.0 * 512 * 9 * 4);
}
BENCHMARK_CAPTURE(BM_Conv2dLayer4, forward, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_Conv2dLayer4, backward, true)->UseRealTime();

void BM_BatchNormForward(benchmark::State& state) {
  std::mt19937 rng(4);
  const std::int64_t c = state.range(0);
  Tensor x = Tensor::randn(Shape{4, c, 28, 28}, rng);
  Tensor gamma = Tensor::full(Shape{c}, 1.0F);
  Tensor beta = Tensor::zeros(Shape{c});
  Tensor rm = Tensor::zeros(Shape{c});
  Tensor rv = Tensor::full(Shape{c}, 1.0F);
  for (auto _ : state) {
    ops::BatchNormState s =
        ops::batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, false);
    benchmark::DoNotOptimize(s.y.data());
  }
}
BENCHMARK(BM_BatchNormForward)->Arg(16)->Arg(64);

// Thread-count sweep arguments: powers of two up to this machine's
// hardware_concurrency, with hardware_concurrency itself always the last
// point. The same grid calib::calibrate() measures, so the JSON rows are
// directly comparable with a cached device profile.
void thread_sweep_args(benchmark::internal::Benchmark* bench) {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  for (unsigned t = 1; t < hw; t *= 2) {
    bench->Arg(static_cast<std::int64_t>(t));
  }
  bench->Arg(static_cast<std::int64_t>(hw));
  bench->UseRealTime();
}

// Thread scaling of the pool on an embarrassingly parallel GEMM: emulates
// little/big core counts of the Waggle node.
void BM_GemmThreads(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<unsigned>(state.range(0)));
  std::mt19937 rng(5);
  const std::int64_t n = 192;
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(false, false, n, n, n, 1.0F, a.data(), b.data(), 0.0F,
              c.data());
    benchmark::DoNotOptimize(c.data());
  }
  ThreadPool::set_global_threads(0);  // restore the default pool
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_GemmThreads)->Apply(thread_sweep_args);

// bf16 GEMM across the same thread grid, operands pre-rounded once (the
// steady-state shape: persistent bf16 weights). GFLOPS compares directly
// against BM_GemmThreads -- the quantized-teacher speedup in isolation.
void BM_GemmBf16(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<unsigned>(state.range(0)));
  std::mt19937 rng(8);
  const std::int64_t n = 192;
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  std::vector<std::uint16_t> a16(static_cast<std::size_t>(n * n));
  std::vector<std::uint16_t> b16(static_cast<std::size_t>(n * n));
  convert::fp32_to_bf16(a.data(), a16.data(), n * n);
  convert::fp32_to_bf16(b.data(), b16.data(), n * n);
  for (auto _ : state) {
    ops::gemm_bf16(false, false, n, n, n, 1.0F, a16.data(), b16.data(), 0.0F,
                   c.data());
    benchmark::DoNotOptimize(c.data());
  }
  ThreadPool::set_global_threads(0);
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_GemmBf16)->Apply(thread_sweep_args);

// int8 GEMM (s8 weights x u8 activations -> s32) across the thread grid.
// One MAC counts as 2 "flops" so the GFLOPS column compares directly with
// the fp32 rows.
void BM_GemmInt8(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<unsigned>(state.range(0)));
  const std::int64_t n = 192;
  std::vector<std::int8_t> a8(static_cast<std::size_t>(n * n));
  std::vector<std::uint8_t> b8(static_cast<std::size_t>(n * n));
  for (std::size_t i = 0; i < a8.size(); ++i) {
    a8[i] = static_cast<std::int8_t>(static_cast<int>(i * 37 % 255) - 127);
    b8[i] = static_cast<std::uint8_t>(i * 101 % 256);
  }
  std::vector<std::int32_t> c32(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    quant::gemm_s8u8(n, n, n, a8.data(), b8.data(), /*zp_b=*/128, c32.data());
    benchmark::DoNotOptimize(c32.data());
  }
  ThreadPool::set_global_threads(0);
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_GemmInt8)->Apply(thread_sweep_args);

// Same sweep for conv2d forward+backward: the thread point a training step
// actually runs at (and the probe calibrate() fits conv_gflops from).
void BM_ConvThreads(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<unsigned>(state.range(0)));
  std::mt19937 rng(7);
  const std::int64_t c = 32;
  Tensor x = Tensor::randn(Shape{1, c, 32, 32}, rng);
  Tensor w = Tensor::randn(Shape{c, c, 3, 3}, rng);
  Tensor gy = Tensor::randn(Shape{1, c, 32, 32}, rng);
  const ops::ConvParams p{1, 1};
  for (auto _ : state) {
    Tensor y = ops::conv2d_forward(x, w, Tensor{}, p);
    ops::Conv2dGrads grads = ops::conv2d_backward(gy, x, w, p, true);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(grads.grad_x.data());
  }
  ThreadPool::set_global_threads(0);
  // Forward one GEMM-equivalent, backward two (dX, dW).
  set_flops(state, 6.0 * static_cast<double>(c) * c * 9 * 32 * 32);
}
BENCHMARK(BM_ConvThreads)->Apply(thread_sweep_args);

/// The CPU model from /proc/cpuinfo ("unknown" off Linux), so a committed
/// BENCH_kernels.json says which host produced it.
std::string host_cpu() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

// Custom main: report to the console as usual AND mirror every run into
// BENCH_kernels.json (machine-readable, git-ignored). Implemented by
// injecting the out-file flags ahead of the user's arguments, so an
// explicit --benchmark_out=... on the command line still wins.
//
// The JSON mirror is only produced by Release builds: committed BENCH
// baselines diffed across commits must never be polluted by -O0/sanitizer
// numbers, and the build type is recorded in the JSON context so a stray
// file can be audited after the fact.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (edgetrain::bench::release_json_allowed("bench_kernels",
                                             "BENCH_kernels.json")) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
    benchmark::AddCustomContext("edgetrain_build_type", "Release");
    benchmark::AddCustomContext("host_cpu", host_cpu());
    benchmark::AddCustomContext(
        "host_threads", std::to_string(std::thread::hardware_concurrency()));
  } else {
    benchmark::AddCustomContext("edgetrain_build_type", "Debug");
  }
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
