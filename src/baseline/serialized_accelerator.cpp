#include "baseline/serialized_accelerator.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "nn/arena.hpp"
#include "util/check.hpp"

namespace edea::baseline {

using arch::TrafficClass;
using core::BufferTile;
using core::ChannelSlice;
using core::KernelGroup;
using core::Tiler;

SerializedDscAccelerator::SerializedDscAccelerator(core::EdeaConfig config)
    : config_(config), dwc_(config), pwc_(config), nonconv_(config) {
  config_.validate();
}

void SerializedDscAccelerator::set_tile_parallelism(int parallelism) {
  EDEA_REQUIRE(parallelism >= 1,
               "tile_parallelism must be >= 1 (the serialized baseline "
               "executes tiles serially at every accepted width)");
  tile_parallelism_ = parallelism;
}

namespace {

/// Indexed blob names built by append (the obvious `"l" + to_string(i)`
/// trips a GCC 12 -Wrestrict false positive in optimized builds).
std::string layer_blob_name(std::size_t i, const char* what) {
  std::string name = "l";
  name += std::to_string(i);
  name += '.';
  name += what;
  return name;
}

}  // namespace

core::NetworkRunResult SerializedDscAccelerator::run_network(
    const std::vector<nn::QuantDscLayer>& layers,
    const nn::Int8Tensor& input) {
  EDEA_REQUIRE(!layers.empty(), "network must have at least one layer");

  // One plan for the whole run: the activation chain (same planner the
  // "edea" backend uses - cross-backend bit-exactness keeps holding), plus
  // this baseline's per-layer scratch: the externally round-tripped
  // intermediate map and the per-tile psum accumulator, each live only at
  // its own layer step so the planner folds them into the reuse.
  nn::MemoryPlanner planner;
  const nn::NetworkActivationPlan acts =
      nn::plan_network_activations(planner, layers, input.shape(), 1);
  std::vector<nn::BlobId> inter_ids;
  std::vector<nn::BlobId> psum_ids;
  std::vector<std::size_t> psum_entries;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::DscLayerSpec& spec = layers[i].spec;
    const auto inter_bytes =
        static_cast<std::size_t>(spec.out_rows()) *
        static_cast<std::size_t>(spec.out_cols()) *
        static_cast<std::size_t>(spec.intermediate_channels());
    inter_ids.push_back(
        planner.add_blob(layer_blob_name(i, "intermediate"), inter_bytes, i, i));
    const Tiler tiler(config_, spec);
    const auto entries =
        static_cast<std::size_t>(tiler.max_tile_psum_entries());
    psum_entries.push_back(entries);
    psum_ids.push_back(planner.add_blob(layer_blob_name(i, "psum"),
                                        entries * sizeof(std::int32_t), i, i));
  }
  nn::Arena arena(planner.plan());

  std::int8_t* in0 = arena.slice<std::int8_t>(acts.inputs[0], input.size());
  std::copy(input.data(), input.data() + input.size(), in0);

  core::NetworkRunResult net;
  net.layers.reserve(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::DscLayerSpec& spec = layers[i].spec;
    const nn::Shape in_shape =
        i == 0 ? input.shape()
               : nn::Shape{layers[i - 1].spec.out_rows(),
                           layers[i - 1].spec.out_cols(),
                           layers[i - 1].spec.out_channels};
    const nn::BlobId in_id = i == 0 ? acts.inputs[0] : acts.outputs[0][i - 1];
    const nn::Int8Tensor in_view = nn::Int8Tensor::view(
        in_shape, arena.slice<std::int8_t>(in_id, in_shape.volume()));

    const nn::Shape out_shape{spec.out_rows(), spec.out_cols(),
                              spec.out_channels};
    arena.clear(acts.outputs[0][i]);
    nn::Int8Tensor out_view = nn::Int8Tensor::view(
        out_shape,
        arena.slice<std::int8_t>(acts.outputs[0][i], out_shape.volume()));

    const nn::Shape inter_shape{spec.out_rows(), spec.out_cols(),
                                spec.intermediate_channels()};
    arena.clear(inter_ids[i]);
    nn::Int8Tensor inter_view = nn::Int8Tensor::view(
        inter_shape,
        arena.slice<std::int8_t>(inter_ids[i], inter_shape.volume()));

    std::int32_t* psum =
        arena.slice<std::int32_t>(psum_ids[i], psum_entries[i]);

    SerializedLayerResult r = run_layer_into(layers[i], in_view, out_view,
                                             inter_view, psum,
                                             psum_entries[i]);
    r.common.output = out_view;  // deep copy: results outlive the arena
    net.layers.push_back(std::move(r.common));
  }
  net.output = net.layers.back().output;
  net.peak_arena_bytes = arena.plan().peak_bytes;
  return net;
}

SerializedLayerResult SerializedDscAccelerator::run_layer(
    const nn::QuantDscLayer& layer, const nn::Int8Tensor& input) {
  const nn::DscLayerSpec& spec = layer.spec;
  nn::Int8Tensor output(
      nn::Shape{spec.out_rows(), spec.out_cols(), spec.out_channels});
  nn::Int8Tensor intermediate(nn::Shape{spec.out_rows(), spec.out_cols(),
                                        spec.intermediate_channels()});
  const Tiler tiler(config_, spec);
  std::vector<std::int32_t> psum_store(
      static_cast<std::size_t>(tiler.max_tile_psum_entries()));
  SerializedLayerResult result =
      run_layer_into(layer, input, output, intermediate, psum_store.data(),
                     psum_store.size());
  result.common.output = std::move(output);
  return result;
}

SerializedLayerResult SerializedDscAccelerator::run_layer_into(
    const nn::QuantDscLayer& layer, const nn::Int8Tensor& input,
    nn::Int8Tensor& output, nn::Int8Tensor& intermediate, std::int32_t* psum,
    std::size_t psum_capacity) {
  const nn::DscLayerSpec& spec = layer.spec;
  EDEA_REQUIRE(input.rank() == 3 && input.dim(0) == spec.in_rows &&
                   input.dim(1) == spec.in_cols &&
                   input.dim(2) == spec.in_channels,
               "layer input shape mismatch");
  // Same mapping preconditions as the EDEA backend: the engines are wired
  // for the configured kernel extent, and a mismatched layer must fail
  // loudly here - indexing a 3x3 weight tensor with a 5x5 kernel would
  // read out of bounds, not simulate a different design.
  EDEA_REQUIRE(spec.kernel == config_.kernel,
               "layer kernel " + std::to_string(spec.kernel) +
                   " does not match the engine's " +
                   std::to_string(config_.kernel) + "x" +
                   std::to_string(config_.kernel) + " datapath");
  EDEA_REQUIRE(spec.stride == 1 || spec.stride == 2,
               "the DWC engine supports strides 1 and 2");

  Tiler tiler(config_, spec);
  dwc_.reset_activity();
  pwc_.reset_activity();
  nonconv_.reset_counters();

  const int N = spec.out_rows();
  const int M = spec.out_cols();
  const int K = spec.out_channels;
  // `output` receives the ofmap; `intermediate` is the externally-stored
  // DWC result (the round-trip EDEA removes). Both may be arena views.
  EDEA_REQUIRE(output.shape() == (nn::Shape{N, M, K}),
               "layer output shape mismatch: got " +
                   output.shape().to_string());
  EDEA_REQUIRE(
      intermediate.shape() == (nn::Shape{N, M, spec.intermediate_channels()}),
      "intermediate map shape mismatch: got " +
          intermediate.shape().to_string());
  EDEA_REQUIRE(psum != nullptr, "psum scratch must be provided");

  SerializedLayerResult result;
  result.common.spec = spec;
  result.common.dwc_input_zero_fraction = input.zero_fraction();

  const int image_rows = input.dim(0);
  const int image_cols = input.dim(1);
  const int mult = spec.depth_multiplier;

  // ---- Phase 1: depthwise convolution over the whole layer. ----
  // Host staging, reused across steps.
  core::DwcWindow window;
  core::DwcStepOutput out;
  for (const BufferTile& tile : tiler.tiles()) {
    for (const ChannelSlice& slice : tiler.slices()) {
      // Ifmap + weight load (counted identically to EDEA's pass loads):
      // only the *distinct* input channels behind the slice's intermediate
      // channels are fetched when the depth multiplier folds lanes.
      const int in_count =
          (slice.channel0 + slice.channels - 1) / mult -
          slice.channel0 / mult + 1;
      result.common.external.record_read(
          TrafficClass::kActivation,
          tile.valid_input_elements(image_rows, image_cols) * in_count);
      const auto w_elems =
          std::int64_t{1} * config_.kernel * config_.kernel * slice.channels;
      result.common.external.record_read(TrafficClass::kWeight, w_elems);
      result.common.external.record_read(TrafficClass::kParameter,
                                         std::int64_t{2} * slice.channels);

      std::vector<std::int8_t> w(static_cast<std::size_t>(w_elems));
      for (int i = 0; i < config_.kernel; ++i) {
        for (int j = 0; j < config_.kernel; ++j) {
          std::copy_n(&layer.dwc_weights(i, j, slice.channel0),
                      slice.channels,
                      w.begin() + (i * config_.kernel + j) * slice.channels);
        }
      }
      dwc_.load_weights(w, slice.channels);

      result.dwc_phase_cycles += config_.init_cycles;
      const int steps_r = (tile.out_rows + config_.tn - 1) / config_.tn;
      const int steps_c = (tile.out_cols + config_.tm - 1) / config_.tm;
      std::vector<std::int8_t> tile_int8(
          static_cast<std::size_t>(config_.tn * config_.tm * slice.channels));
      std::vector<nn::NonConvChannelParams> params;
      for (int ch = 0; ch < slice.channels; ++ch) {
        params.push_back(layer.nonconv1.channels[static_cast<std::size_t>(
            slice.channel0 + ch)]);
      }

      for (int sy = 0; sy < steps_r; ++sy) {
        for (int sx = 0; sx < steps_c; ++sx) {
          const int out_r0 = tile.out_row0 + sy * config_.tn;
          const int out_c0 = tile.out_col0 + sx * config_.tm;

          window.extent =
              config_.dwc_window_extent(spec.stride, spec.dilation);
          window.channels = slice.channels;
          window.values.assign(static_cast<std::size_t>(
                                   window.extent * window.extent *
                                   window.channels),
                               0);
          const int gr0 = out_r0 * spec.stride - spec.padding;
          const int gc0 = out_c0 * spec.stride - spec.padding;
          for (int r = 0; r < window.extent; ++r) {
            for (int c = 0; c < window.extent; ++c) {
              const int gr = gr0 + r;
              const int gc = gc0 + c;
              if (gr < 0 || gr >= image_rows || gc < 0 || gc >= image_cols) {
                continue;
              }
              // Lane ch carries intermediate channel slice.channel0 + ch,
              // whose data is input channel (slice.channel0 + ch) / mult.
              std::int8_t* lanes = window.values.data() +
                                   (r * window.extent + c) * window.channels;
              if (mult == 1) {
                std::copy_n(&input(gr, gc, slice.channel0), window.channels,
                            lanes);
              } else {
                for (int ch = 0; ch < window.channels; ++ch) {
                  lanes[ch] = input(gr, gc, (slice.channel0 + ch) / mult);
                }
              }
            }
          }

          dwc_.step_into(window, spec.stride, spec.dilation, out);
          result.dwc_phase_cycles += 1;
          result.common.timing.dwc_active_cycles += 1;

          nonconv_.set_writeback_mode(false);
          nonconv_.apply_block(out.acc, params, slice.channels, tile_int8);

          // Round-trip: write the valid outputs to external memory.
          for (int r = 0; r < out.rows; ++r) {
            const int gr = out_r0 + r;
            if (gr >= tile.out_row0 + tile.out_rows || gr >= N) continue;
            for (int c = 0; c < out.cols; ++c) {
              const int gc = out_c0 + c;
              if (gc >= tile.out_col0 + tile.out_cols || gc >= M) continue;
              std::copy_n(
                  tile_int8.begin() + (r * out.cols + c) * slice.channels,
                  slice.channels, &intermediate(gr, gc, slice.channel0));
              result.intermediate_external_writes += slice.channels;
            }
          }
        }
      }
    }
  }
  result.common.external.record_write(TrafficClass::kActivation,
                                      result.intermediate_external_writes);
  result.common.pwc_input_zero_fraction = intermediate.zero_fraction();

  // ---- Phase 2: pointwise convolution, reading the intermediate back. ----
  const std::vector<KernelGroup>& groups = tiler.kernel_groups();
  std::vector<core::PwcStepInput> group_inputs(groups.size());
  std::vector<std::int8_t> acts;  // one step's intermediate tile
  core::PwcStepOutput pout;
  for (const BufferTile& tile : tiler.tiles()) {
    const auto tile_entries =
        static_cast<std::size_t>(tile.out_rows) *
        static_cast<std::size_t>(tile.out_cols) * static_cast<std::size_t>(K);
    EDEA_ASSERT(tile_entries <= psum_capacity,
                "psum scratch smaller than the tiler's largest tile");
    std::fill(psum, psum + tile_entries, std::int32_t{0});

    for (const ChannelSlice& slice : tiler.slices()) {
      result.pwc_phase_cycles += config_.init_cycles;
      result.common.external.record_read(
          TrafficClass::kWeight, std::int64_t{K} * slice.channels);

      // Each kernel group's weight block is fixed for the whole pass:
      // gathered once here, one run per kernel.
      for (std::size_t g = 0; g < groups.size(); ++g) {
        core::PwcStepInput& pin = group_inputs[g];
        pin.rows = config_.tn;
        pin.cols = config_.tm;
        pin.channels = slice.channels;
        pin.kernels = groups[g].kernels;
        pin.weights.resize(
            static_cast<std::size_t>(pin.kernels * slice.channels));
        for (int kk = 0; kk < pin.kernels; ++kk) {
          std::copy_n(
              &layer.pwc_weights(groups[g].kernel0 + kk, slice.channel0),
              slice.channels, pin.weights.begin() + kk * slice.channels);
        }
      }

      const int steps_r = (tile.out_rows + config_.tn - 1) / config_.tn;
      const int steps_c = (tile.out_cols + config_.tm - 1) / config_.tm;
      acts.resize(
          static_cast<std::size_t>(config_.tn * config_.tm * slice.channels));
      for (int sy = 0; sy < steps_r; ++sy) {
        for (int sx = 0; sx < steps_c; ++sx) {
          const int out_r0 = tile.out_row0 + sy * config_.tn;
          const int out_c0 = tile.out_col0 + sx * config_.tm;

          // Fetch the step's intermediate tile once (held in registers
          // across kernel groups), counting the external reads.
          for (int r = 0; r < config_.tn; ++r) {
            for (int c = 0; c < config_.tm; ++c) {
              const int gr = out_r0 + r;
              const int gc = out_c0 + c;
              const auto lanes =
                  acts.begin() + (r * config_.tm + c) * slice.channels;
              if (gr < N && gc < M) {
                std::copy_n(&intermediate(gr, gc, slice.channel0),
                            slice.channels, lanes);
                result.intermediate_external_reads += slice.channels;
              } else {
                std::fill_n(lanes, slice.channels, std::int8_t{0});
              }
            }
          }

          for (std::size_t g = 0; g < groups.size(); ++g) {
            const KernelGroup& group = groups[g];
            core::PwcStepInput& pin = group_inputs[g];
            pin.activations = acts;
            pwc_.step_into(pin, pout);
            result.pwc_phase_cycles += 1;
            result.common.timing.pwc_active_cycles += 1;

            for (int r = 0; r < pout.rows; ++r) {
              const int tr = sy * config_.tn + r;
              if (tr >= tile.out_rows) continue;
              for (int c = 0; c < pout.cols; ++c) {
                const int tc = sx * config_.tm + c;
                if (tc >= tile.out_cols) continue;
                std::int32_t* dst =
                    psum + (tr * tile.out_cols + tc) * K + group.kernel0;
                const std::int32_t* src =
                    pout.psum.data() + (r * pout.cols + c) * pout.kernels;
                for (int kk = 0; kk < pout.kernels; ++kk) dst[kk] += src[kk];
              }
            }
          }
        }
      }
    }

    // Write-back through the Non-Conv array (per-K parameters).
    nonconv_.set_writeback_mode(true);
    result.common.external.record_read(TrafficClass::kParameter,
                                       std::int64_t{2} * K);
    std::vector<std::int8_t> out_row(static_cast<std::size_t>(K));
    std::vector<std::int32_t> acc_row(static_cast<std::size_t>(K));
    for (int r = 0; r < tile.out_rows; ++r) {
      for (int c = 0; c < tile.out_cols; ++c) {
        std::copy_n(psum + (r * tile.out_cols + c) * K, K, acc_row.begin());
        nonconv_.apply_block(acc_row, layer.nonconv2.channels, K, out_row);
        std::copy(out_row.begin(), out_row.end(),
                  &output(tile.out_row0 + r, tile.out_col0 + c, 0));
        result.common.external.record_write(TrafficClass::kActivation, K);
      }
    }
  }
  result.common.external.record_read(TrafficClass::kActivation,
                                     result.intermediate_external_reads);

  result.common.timing.total_cycles =
      result.dwc_phase_cycles + result.pwc_phase_cycles;
  result.common.timing.init_cycles = 0;  // split across the two phases
  result.common.timing.compute_cycles = result.common.timing.total_cycles;
  result.common.dwc_activity = dwc_.activity();
  result.common.pwc_activity = pwc_.activity();
  result.common.nonconv_transfer_ops = nonconv_.transfer_ops();
  result.common.nonconv_writeback_ops = nonconv_.writeback_ops();
  return result;
}

}  // namespace edea::baseline
