#include "core/accelerator.hpp"

#include <algorithm>

#include "nn/arena.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace edea::core {

namespace {

using arch::TrafficClass;

/// 24-bit little-endian packing for the offline buffer: the silicon stores
/// Non-Conv k/b as 24-bit words (Sec. III-C), so the model does too.
void pack24(arch::SramBuffer& buf, std::int64_t byte_addr, std::int32_t v) {
  std::uint8_t bytes[3] = {
      static_cast<std::uint8_t>(v & 0xFF),
      static_cast<std::uint8_t>((v >> 8) & 0xFF),
      static_cast<std::uint8_t>((v >> 16) & 0xFF),
  };
  buf.write(byte_addr, bytes, 3);
}

std::int32_t unpack24(arch::SramBuffer& buf, std::int64_t byte_addr) {
  std::uint8_t bytes[3];
  buf.read(byte_addr, bytes, 3);
  std::int32_t v = static_cast<std::int32_t>(bytes[0]) |
                   (static_cast<std::int32_t>(bytes[1]) << 8) |
                   (static_cast<std::int32_t>(bytes[2]) << 16);
  // Sign-extend from bit 23.
  if ((v & 0x800000) != 0) v |= static_cast<std::int32_t>(0xFF000000u);
  return v;
}

}  // namespace

namespace detail {

/// One tile worker: a full private complement of engines, SRAM buffers,
/// and counters, executing a contiguous chunk of a layer's buffer tiles.
/// Workers model the same silicon executing different tiles; this is
/// sound because tiles share nothing mutable - each owns a disjoint
/// output region, and the layer/input operands are read-only. Everything
/// a worker measures lands in its LayerPartial, merged by the accelerator
/// in tile order once all chunks finish.
class TileWorker {
 public:
  /// Scratch blob ids inside the worker's arena; add order below fixes them.
  enum ScratchBlob : nn::BlobId {
    kIfmap = 0,
    kDwcWeight,
    kOffline,
    kIntermediate,
    kPwcWeight,
    kAccumulator,
  };

  /// All six SRAM models are live for the whole of every layer, so the
  /// planner stacks them; what it buys is ONE contiguous allocation per
  /// worker (64-byte-aligned slices, no per-buffer heap blocks) and the
  /// same planned-offset discipline the activation arena uses.
  static nn::Arena plan_scratch(const EdeaConfig& config) {
    nn::MemoryPlanner planner;
    const auto blob = [&](const char* name, std::int64_t bytes) {
      return planner.add_blob(name, static_cast<std::size_t>(bytes), 0, 0);
    };
    blob("dwc_ifmap", config.dwc_ifmap_buffer_bytes());
    blob("dwc_weight", config.dwc_weight_buffer_bytes());
    blob("offline", config.offline_buffer_bytes());
    blob("intermediate", config.intermediate_buffer_bytes());
    blob("pwc_weight", config.pwc_weight_buffer_bytes());
    blob("accumulator", config.accumulator_buffer_bytes());
    return nn::Arena(planner.plan());
  }

  explicit TileWorker(const EdeaConfig& config)
      : config_(config),
        dwc_(config),
        pwc_(config),
        nonconv_(config),
        scratch_(plan_scratch(config)),
        ifmap_buffer_("dwc_ifmap", scratch_.bytes(kIfmap),
                      config.dwc_ifmap_buffer_bytes()),
        dwc_weight_buffer_("dwc_weight", scratch_.bytes(kDwcWeight),
                           config.dwc_weight_buffer_bytes()),
        offline_buffer_("offline", scratch_.bytes(kOffline),
                        config.offline_buffer_bytes()),
        intermediate_buffer_("intermediate", scratch_.bytes(kIntermediate),
                             config.intermediate_buffer_bytes()),
        pwc_weight_buffer_("pwc_weight", scratch_.bytes(kPwcWeight),
                           config.pwc_weight_buffer_bytes()),
        accumulator_("accumulator", scratch_.bytes(kAccumulator),
                     config.accumulator_buffer_bytes()),
        psum_run_(static_cast<std::size_t>(config.tk)) {
    config_.validate();
  }

  /// Resets every per-layer tally. Called for each participating worker
  /// before the tile chunks are dispatched.
  void begin_layer() {
    partial_ = LayerPartial{};
    dwc_.reset_activity();
    pwc_.reset_activity();
    nonconv_.reset_counters();
  }

  /// Executes one buffer tile end to end: every channel-slice pass, then
  /// the write-back of the tile's output region. `trace` must be non-null
  /// only for the globally first tile of a serially executed layer.
  void run_tile(const nn::QuantDscLayer& layer, const nn::Int8Tensor& input,
                const BufferTile& tile,
                const std::vector<ChannelSlice>& slices,
                const std::vector<KernelGroup>& groups,
                nn::Int8Tensor& output, PipelineTrace* trace) {
    bool first_slice = true;
    for (const ChannelSlice& slice : slices) {
      // Only the very first pass of the traced tile records (Fig. 7).
      if (trace != nullptr) trace->armed = first_slice;
      run_pass(layer, input, tile, slice, first_slice, groups, trace);
      if (trace != nullptr) trace->armed = false;
      first_slice = false;
    }
    write_back_tile(layer, tile, output);
  }

  /// Folds the engines' activity into the partial and returns it.
  [[nodiscard]] const LayerPartial& finish_layer() {
    partial_.dwc_activity = dwc_.activity();
    partial_.pwc_activity = pwc_.activity();
    partial_.nonconv_transfer_ops = nonconv_.transfer_ops();
    partial_.nonconv_writeback_ops = nonconv_.writeback_ops();
    return partial_;
  }

  [[nodiscard]] const DwcEngine& dwc() const noexcept { return dwc_; }
  [[nodiscard]] const PwcEngine& pwc() const noexcept { return pwc_; }

  /// Pins both engines' kernel selection (the kernel-table A/B lever).
  void set_kernel_policy(KernelPolicy policy) noexcept {
    dwc_.set_kernel_policy(policy);
    pwc_.set_kernel_policy(policy);
  }

 private:
  /// Loads the valid part of the tile's input region into the ifmap buffer.
  /// Only *distinct* input channels are staged: with depth multiplier m the
  /// slice's intermediate channels [c0, c0+n) all read input channels
  /// [c0/m, (c0+n-1)/m], so that smaller range is what the SRAM holds and
  /// what external activation traffic pays for. Each (row, col) position
  /// is one run of those channels.
  void load_ifmap_tile(const nn::Int8Tensor& input, const BufferTile& tile,
                       const ChannelSlice& slice, int mult) {
    const int image_rows = input.dim(0);
    const int image_cols = input.dim(1);
    const int in0 = slice.channel0 / mult;
    const int in_count =
        (slice.channel0 + slice.channels - 1) / mult - in0 + 1;
    // The buffer is cleared so halo positions beyond the image read as the
    // zero padding value; only valid elements are fetched (and counted).
    ifmap_buffer_.clear_contents();
    ifmap_buffer_.reset_counters();  // per-pass fills are tallied via partial

    std::int64_t fetched = 0;
    for (int r = 0; r < tile.in_rows; ++r) {
      const int gr = tile.in_row0 + r;
      if (gr < 0 || gr >= image_rows) continue;
      for (int c = 0; c < tile.in_cols; ++c) {
        const int gc = tile.in_col0 + c;
        if (gc < 0 || gc >= image_cols) continue;
        ifmap_buffer_.write_run<std::int8_t>(
            (std::int64_t{r} * tile.in_cols + c) * in_count,
            &input(gr, gc, in0), in_count);
        fetched += in_count;
      }
    }
    partial_.external.record_read(TrafficClass::kActivation, fetched);
    partial_.buffers.dwc_ifmap.record_write(fetched, fetched);
  }

  /// Reads one DWC window from the ifmap buffer into window_ (zeros outside
  /// the image), one run per kernel tap. Window lane `ch` carries
  /// intermediate channel slice.channel0 + ch, whose data lives at staged
  /// input channel (slice.channel0 + ch) / mult: at m = 1 the run lands in
  /// the window directly, otherwise the tap's distinct channels are read
  /// once and fanned out to the lanes that share them.
  void fetch_window(const BufferTile& tile, const ChannelSlice& slice,
                    int image_rows, int image_cols, int out_row0, int out_col0,
                    int stride, int padding, int dilation, int mult) {
    DwcWindow& window = window_;
    window.extent = config_.dwc_window_extent(stride, dilation);
    window.channels = slice.channels;
    window.values.resize(static_cast<std::size_t>(
        window.extent * window.extent * window.channels));

    const int in0 = slice.channel0 / mult;
    const int in_count =
        (slice.channel0 + slice.channels - 1) / mult - in0 + 1;
    tap_.resize(static_cast<std::size_t>(in_count));

    // Window origin in unpadded image coordinates (the first kernel tap).
    const int grow0 = out_row0 * stride - padding;
    const int gcol0 = out_col0 * stride - padding;

    std::int64_t sram_reads = 0;
    for (int r = 0; r < window.extent; ++r) {
      const int gr = grow0 + r;
      for (int c = 0; c < window.extent; ++c) {
        const int gc = gcol0 + c;
        const bool in_image =
            gr >= 0 && gr < image_rows && gc >= 0 && gc < image_cols;
        const int br = gr - tile.in_row0;  // buffer-region coordinates
        const int bc = gc - tile.in_col0;
        const bool in_region = br >= 0 && br < tile.in_rows && bc >= 0 &&
                               bc < tile.in_cols;
        std::int8_t* lanes = window.values.data() +
                             (r * window.extent + c) * window.channels;
        if (!(in_image && in_region)) {
          std::fill_n(lanes, window.channels, std::int8_t{0});
          continue;
        }
        const std::int64_t addr =
            (std::int64_t{br} * tile.in_cols + bc) * in_count;
        if (mult == 1) {
          ifmap_buffer_.read_run<std::int8_t>(addr, lanes, window.channels);
        } else {
          ifmap_buffer_.read_run<std::int8_t>(addr, tap_.data(), in_count);
          for (int ch = 0; ch < window.channels; ++ch) {
            lanes[ch] =
                tap_[static_cast<std::size_t>((slice.channel0 + ch) / mult -
                                              in0)];
          }
        }
        sram_reads += window.channels;
      }
    }
    partial_.buffers.dwc_ifmap.record_read(sram_reads, sram_reads);
    partial_.dataflow.dwc_window_elements +=
        std::int64_t{1} * window.extent * window.extent * window.channels;
  }

  /// Executes one (buffer tile, channel slice) pass.
  void run_pass(const nn::QuantDscLayer& layer, const nn::Int8Tensor& input,
                const BufferTile& tile, const ChannelSlice& slice,
                bool first_slice, const std::vector<KernelGroup>& groups,
                PipelineTrace* trace) {
    const nn::DscLayerSpec& spec = layer.spec;
    const int stride = spec.stride;
    const int K = spec.out_channels;
    const int channels = slice.channels;
    std::int64_t cycle = 0;

    // ---- initiation (Fig. 7): fills buffers and the pipeline. ----
    if (trace != nullptr) {
      trace->emit(cycle, "DWC Input Ifmap & Weight",
                  "tile(" + std::to_string(tile.out_row0) + "," +
                      std::to_string(tile.out_col0) + ") slice " +
                      std::to_string(slice.channel0 / config_.td));
      trace->emit(cycle, "PWC Input Weight",
                  "slice weights for " + std::to_string(K) + " kernels");
    }

    // Ifmap region for this (tile, slice): distinct input channels only.
    load_ifmap_tile(input, tile, slice, spec.depth_multiplier);

    // DWC kernel slice -> weight buffer (one run per tap) -> engine
    // registers (one run for the whole slice).
    {
      const auto elements =
          std::int64_t{1} * config_.kernel * config_.kernel * channels;
      for (int i = 0; i < config_.kernel; ++i) {
        for (int j = 0; j < config_.kernel; ++j) {
          dwc_weight_buffer_.write_run<std::int8_t>(
              (std::int64_t{i} * config_.kernel + j) * channels,
              &layer.dwc_weights(i, j, slice.channel0), channels);
        }
      }
      dwc_weights_.resize(static_cast<std::size_t>(elements));
      dwc_weight_buffer_.read_run<std::int8_t>(0, dwc_weights_.data(),
                                               elements);
      partial_.external.record_read(TrafficClass::kWeight, elements);
      partial_.buffers.dwc_weight.record_write(elements, elements);
      partial_.buffers.dwc_weight.record_read(elements, elements);
      partial_.dataflow.dwc_weight_elements += elements;
      dwc_.load_weights(dwc_weights_, channels);
    }

    // Non-Conv (k, b) pairs for the slice channels -> offline buffer.
    if (trace != nullptr) {
      trace->emit(2, "DWC Input offline Data",
                  std::to_string(channels) + " (k,b) pairs");
    }
    for (int ch = 0; ch < channels; ++ch) {
      const auto& p =
          layer.nonconv1.channels[static_cast<std::size_t>(slice.channel0 +
                                                           ch)];
      pack24(offline_buffer_, std::int64_t{ch} * 6, p.k.raw());
      pack24(offline_buffer_, std::int64_t{ch} * 6 + 3, p.b.raw());
    }
    partial_.external.record_read(TrafficClass::kParameter,
                                  std::int64_t{2} * channels);

    // PWC weights for (slice, all kernels) -> PWC weight buffer, one run
    // per kernel.
    for (int k = 0; k < K; ++k) {
      pwc_weight_buffer_.write_run<std::int8_t>(
          std::int64_t{k} * channels, &layer.pwc_weights(k, slice.channel0),
          channels);
    }
    {
      const auto elements = std::int64_t{1} * K * channels;
      partial_.external.record_read(TrafficClass::kWeight, elements);
      partial_.buffers.pwc_weight.record_write(elements, elements);
      partial_.dataflow.pwc_weight_elements += elements;
    }

    // Each kernel group's operand block is fixed for the whole pass: its
    // weights are one contiguous run of the PWC weight buffer, gathered
    // here once. The silicon re-reads them every cycle it drains the
    // group; that per-cycle read is tallied in the step loop below.
    group_inputs_.resize(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      PwcStepInput& pin = group_inputs_[g];
      pin.rows = config_.tn;
      pin.cols = config_.tm;
      pin.channels = channels;
      pin.kernels = groups[g].kernels;
      pin.activations.resize(
          static_cast<std::size_t>(pin.rows * pin.cols * channels));
      pin.weights.resize(static_cast<std::size_t>(pin.kernels * channels));
      pwc_weight_buffer_.read_run<std::int8_t>(
          std::int64_t{groups[g].kernel0} * channels, pin.weights.data(),
          std::int64_t{pin.kernels} * channels);
    }

    cycle += config_.init_cycles;

    // Re-read the slice's Non-Conv parameters once per pass (they sit in
    // unit-local registers during compute, as in the silicon).
    slice_params_.clear();
    for (int ch = 0; ch < channels; ++ch) {
      const std::int32_t kraw =
          unpack24(offline_buffer_, std::int64_t{ch} * 6);
      const std::int32_t braw =
          unpack24(offline_buffer_, std::int64_t{ch} * 6 + 3);
      slice_params_.push_back(nn::NonConvChannelParams{
          arch::Q8_16::from_raw(kraw), arch::Q8_16::from_raw(braw)});
    }

    // ---- steady state: one (spatial step, kernel group) per cycle. ----
    const int image_rows = input.dim(0);
    const int image_cols = input.dim(1);
    const int steps_r = (tile.out_rows + config_.tn - 1) / config_.tn;
    const int steps_c = (tile.out_cols + config_.tm - 1) / config_.tm;

    intermediate_.resize(
        static_cast<std::size_t>(config_.tn * config_.tm * channels));
    const auto step_elements = static_cast<std::int64_t>(intermediate_.size());
    int step_index = 0;

    for (int sy = 0; sy < steps_r; ++sy) {
      for (int sx = 0; sx < steps_c; ++sx, ++step_index) {
        const int out_r0 = tile.out_row0 + sy * config_.tn;  // global coords
        const int out_c0 = tile.out_col0 + sx * config_.tm;

        // DWC engine fires once for this spatial step.
        fetch_window(tile, slice, image_rows, image_cols, out_r0, out_c0,
                     stride, spec.padding, spec.dilation,
                     spec.depth_multiplier);
        // fetch_window has already folded the depth multiplier into the
        // window, so the engine (and its kernel table) never sees it.
        dwc_.step_into(window_, stride, spec.dilation, dwc_out_);
        const DwcStepOutput& dwc_out = dwc_out_;
        partial_.timing.dwc_active_cycles += 1;
        if (trace != nullptr && step_index < 4) {
          trace->emit(cycle, "DWC Engine Process",
                      "step (" + std::to_string(sy) + "," +
                          std::to_string(sx) + ")");
        }

        // Non-Conv transfer: DWC accumulators -> int8 PWC inputs.
        nonconv_.set_writeback_mode(false);
        nonconv_.apply_block(dwc_out.acc, slice_params_, channels,
                             intermediate_);
        partial_.buffers.offline.record_read(std::int64_t{2} * channels,
                                             std::int64_t{2} * channels);
        if (trace != nullptr && step_index < 4) {
          trace->emit(cycle, "Non-Conv Unit Process",
                      std::to_string(intermediate_.size()) + " values");
        }

        // Direct transfer into the (double-buffered) intermediate buffer.
        const std::int64_t half =
            (step_index % 2) * (config_.intermediate_buffer_bytes() / 2);
        intermediate_buffer_.write_run<std::int8_t>(half, intermediate_.data(),
                                                    step_elements);
        partial_.buffers.intermediate.record_write(step_elements,
                                                   step_elements);
        // PWC-input sparsity statistics (Fig. 11): collected at the point
        // the intermediate tile is produced. Only spatial positions that
        // belong to the real ofmap count (edge tiles compute dummy lanes).
        for (int r = 0; r < dwc_out.rows; ++r) {
          if (out_r0 + r >= tile.out_row0 + tile.out_rows) continue;
          for (int c = 0; c < dwc_out.cols; ++c) {
            if (out_c0 + c >= tile.out_col0 + tile.out_cols) continue;
            const auto lanes =
                intermediate_.begin() + (r * dwc_out.cols + c) * channels;
            partial_.pwc_input_total += channels;
            partial_.pwc_input_zeros +=
                std::count(lanes, lanes + channels, std::int8_t{0});
          }
        }
        if (trace != nullptr && step_index < 4) {
          trace->emit(cycle, "Write Intermediate Buffer",
                      "half " + std::to_string(step_index % 2));
        }

        // PWC engine drains the kernel groups; one group per cycle.
        for (std::size_t g = 0; g < groups.size(); ++g) {
          const KernelGroup& group = groups[g];
          PwcStepInput& pin = group_inputs_[g];
          intermediate_buffer_.read_run<std::int8_t>(
              half, pin.activations.data(), step_elements);
          partial_.buffers.intermediate.record_read(step_elements,
                                                    step_elements);
          partial_.dataflow.pwc_activation_elements += step_elements;
          {
            const auto n = std::int64_t{1} * group.kernels * channels;
            partial_.buffers.pwc_weight.record_read(n, n);
          }

          pwc_.step_into(pin, pwc_out_);
          const PwcStepOutput& pout = pwc_out_;
          partial_.timing.pwc_active_cycles += 1;
          if (trace != nullptr && step_index < 2 && group.kernel0 == 0) {
            trace->emit(cycle, "PWC Engine Process",
                        "group k0=" + std::to_string(group.kernel0));
          }

          // Accumulate valid partial sums for this tile: one
          // read-modify-write run of the group's kernels per position.
          const std::int64_t kernels = pout.kernels;
          for (int r = 0; r < pout.rows; ++r) {
            const int tr = sy * config_.tn + r;  // tile-relative output row
            if (tr >= tile.out_rows) continue;
            for (int c = 0; c < pout.cols; ++c) {
              const int tc = sx * config_.tm + c;
              if (tc >= tile.out_cols) continue;
              const std::int64_t addr =
                  (std::int64_t{tr} * tile.out_cols + tc) * K + group.kernel0;
              const std::int32_t* step_psum =
                  pout.psum.data() + (r * pout.cols + c) * pout.kernels;
              std::int32_t* psum = psum_run_.data();
              if (first_slice) {
                std::copy_n(step_psum, kernels, psum);
              } else {
                accumulator_.read_run<std::int32_t>(addr, psum, kernels);
                partial_.buffers.accumulator.record_read(4 * kernels, kernels);
                for (std::int64_t kk = 0; kk < kernels; ++kk) {
                  psum[kk] += step_psum[kk];
                }
              }
              accumulator_.write_run<std::int32_t>(addr, psum, kernels);
              partial_.buffers.accumulator.record_write(4 * kernels, kernels);
              for (std::int64_t kk = 0; kk < kernels; ++kk) {
                const std::int64_t mag =
                    std::abs(static_cast<std::int64_t>(psum[kk]));
                if (mag > partial_.max_abs_psum) partial_.max_abs_psum = mag;
              }
            }
          }
          cycle += 1;
        }
      }
    }

    partial_.timing.passes += 1;
    partial_.timing.init_cycles += config_.init_cycles;
    partial_.timing.compute_cycles += cycle - config_.init_cycles;
    partial_.timing.total_cycles += cycle;
  }

  /// Write-back: accumulator -> Non-Conv (per-K params) -> output tensor,
  /// one run of K partial sums per output position. Touches only this
  /// tile's (disjoint) output region, so concurrent write-backs from
  /// different workers never alias.
  void write_back_tile(const nn::QuantDscLayer& layer, const BufferTile& tile,
                       nn::Int8Tensor& output) {
    const int K = layer.spec.out_channels;
    nonconv_.set_writeback_mode(true);

    // Per-output-channel parameters stream from external memory (counted as
    // parameter traffic once per tile).
    partial_.external.record_read(arch::TrafficClass::kParameter,
                                  std::int64_t{2} * K);

    acc_row_.resize(static_cast<std::size_t>(K));
    out_row_.resize(static_cast<std::size_t>(K));
    for (int r = 0; r < tile.out_rows; ++r) {
      for (int c = 0; c < tile.out_cols; ++c) {
        accumulator_.read_run<std::int32_t>(
            (std::int64_t{r} * tile.out_cols + c) * K, acc_row_.data(), K);
        partial_.buffers.accumulator.record_read(std::int64_t{4} * K, K);
        nonconv_.apply_block(acc_row_, layer.nonconv2.channels, K, out_row_);
        std::copy(out_row_.begin(), out_row_.end(),
                  &output(tile.out_row0 + r, tile.out_col0 + c, 0));
        partial_.external.record_write(arch::TrafficClass::kActivation, K);
      }
    }
  }

  EdeaConfig config_;
  DwcEngine dwc_;
  PwcEngine pwc_;
  NonConvUnitArray nonconv_;

  /// One contiguous planned allocation backing the six span-mode SRAM
  /// buffers below (declared first: the buffers slice into it).
  nn::Arena scratch_;

  arch::SramBuffer ifmap_buffer_;
  arch::SramBuffer dwc_weight_buffer_;
  arch::SramBuffer offline_buffer_;
  arch::SramBuffer intermediate_buffer_;
  arch::SramBuffer pwc_weight_buffer_;
  arch::SramBuffer accumulator_;

  LayerPartial partial_;

  // Host-side staging reused across passes and steps (sized on first use,
  // never part of the modelled silicon).
  DwcWindow window_;
  DwcStepOutput dwc_out_;
  PwcStepOutput pwc_out_;
  std::vector<std::int8_t> tap_;          ///< one tap's distinct channels
  std::vector<std::int8_t> dwc_weights_;  ///< engine register image
  std::vector<nn::NonConvChannelParams> slice_params_;
  std::vector<PwcStepInput> group_inputs_;  ///< per kernel group, per pass
  std::vector<std::int8_t> intermediate_;   ///< one step's Non-Conv output
  std::vector<std::int32_t> psum_run_;      ///< one position's group psums
  std::vector<std::int32_t> acc_row_;       ///< write-back K psums
  std::vector<std::int8_t> out_row_;        ///< write-back K outputs
};

}  // namespace detail

EdeaAccelerator::EdeaAccelerator(EdeaConfig config) : config_(config) {
  config_.validate();
  // Worker 0 exists eagerly: it is the serial path and the structural
  // reference behind dwc_engine()/pwc_engine().
  workers_.push_back(std::make_unique<detail::TileWorker>(config_));
}

EdeaAccelerator::~EdeaAccelerator() = default;

const DwcEngine& EdeaAccelerator::dwc_engine() const noexcept {
  return workers_.front()->dwc();
}

const PwcEngine& EdeaAccelerator::pwc_engine() const noexcept {
  return workers_.front()->pwc();
}

void EdeaAccelerator::set_tile_parallelism(int parallelism) {
  EDEA_REQUIRE(parallelism >= 1,
               "tile_parallelism must be >= 1 (1 = the serial reference "
               "path); got " +
                   std::to_string(parallelism));
  tile_parallelism_ = parallelism;
}

void EdeaAccelerator::set_kernel_policy(KernelPolicy policy) {
  kernel_policy_ = policy;
  for (auto& w : workers_) w->set_kernel_policy(policy);
}

detail::TileWorker& EdeaAccelerator::worker(std::size_t index) {
  while (workers_.size() <= index) {
    workers_.push_back(std::make_unique<detail::TileWorker>(config_));
    workers_.back()->set_kernel_policy(kernel_policy_);
  }
  return *workers_[index];
}

LayerRunResult EdeaAccelerator::run_layer(const nn::QuantDscLayer& layer,
                                          const nn::Int8Tensor& input) {
  const nn::DscLayerSpec& spec = layer.spec;
  nn::Int8Tensor output(
      nn::Shape{spec.out_rows(), spec.out_cols(), spec.out_channels});
  LayerRunResult result = run_layer_into(layer, input, output);
  result.output = std::move(output);
  return result;
}

LayerRunResult EdeaAccelerator::run_layer_into(const nn::QuantDscLayer& layer,
                                               const nn::Int8Tensor& input,
                                               nn::Int8Tensor& output) {
  const nn::DscLayerSpec& spec = layer.spec;
  EDEA_REQUIRE(input.rank() == 3, "layer input must be [R][C][D]");
  EDEA_REQUIRE(input.dim(0) == spec.in_rows && input.dim(1) == spec.in_cols &&
                   input.dim(2) == spec.in_channels,
               "layer input shape mismatch: got " + input.shape().to_string());
  // The engines are wired for the configured kernel extent (the silicon's
  // multiplier/tree topology is fixed); a mismatched layer cannot be mapped.
  EDEA_REQUIRE(spec.kernel == config_.kernel,
               "layer kernel " + std::to_string(spec.kernel) +
                   " does not match the engine's " +
                   std::to_string(config_.kernel) + "x" +
                   std::to_string(config_.kernel) + " datapath");
  EDEA_REQUIRE(spec.stride == 1 || spec.stride == 2,
               "the DWC engine supports strides 1 and 2");

  Tiler tiler(config_, spec);
  // Hardware capacity checks: the tiler must have produced tiles that fit.
  // (Every worker's buffers are built from config_, so checking the
  // configured capacities covers all of them.)
  EDEA_ASSERT(tiler.max_tile_input_bytes() <= config_.dwc_ifmap_buffer_bytes(),
              "ifmap tile exceeds buffer capacity");
  if (tiler.max_tile_psum_entries() * 4 > config_.accumulator_buffer_bytes()) {
    throw ResourceError(
        "PWC accumulator cannot hold a " +
        std::to_string(tiler.max_tile_psum_entries()) +
        "-entry output tile; layer " + spec.to_string() +
        " is outside the modeled configuration");
  }
  if (std::int64_t{spec.out_channels} * config_.td >
      config_.pwc_weight_buffer_bytes()) {
    throw ResourceError("PWC weight buffer cannot hold K=" +
                        std::to_string(spec.out_channels) + " kernel slices");
  }

  const nn::Shape out_shape{spec.out_rows(), spec.out_cols(),
                            spec.out_channels};
  EDEA_REQUIRE(output.shape() == out_shape,
               "layer output shape mismatch: got " +
                   output.shape().to_string() + ", want " +
                   out_shape.to_string());

  LayerRunResult result;
  result.spec = spec;
  result.dwc_input_zero_fraction = input.zero_fraction();

  const std::vector<BufferTile>& tiles = tiler.tiles();
  // A trace pins the layer to the serial path: "the first pass" is only
  // well defined when tiles run in order on one thread.
  const int want = trace_ != nullptr ? 1 : tile_parallelism_;
  const int chunks = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(want), tiles.size()));

  // Workers are materialized and reset on the calling thread; the parallel
  // region below only indexes them.
  for (int w = 0; w < chunks; ++w) worker(static_cast<std::size_t>(w)).begin_layer();

  // One chunk of contiguous tiles per worker, dispatched over the shared
  // pool: at most chunks-1 helper tasks are queued and the calling thread
  // participates, so a sweep-level job running tile-parallel layers
  // borrows at most its stated tile budget from the process-wide pool.
  util::parallel_for(0, chunks, [&](std::int64_t w) {
    detail::TileWorker& tw = *workers_[static_cast<std::size_t>(w)];
    const auto [first, last] = tiler.tile_chunk(chunks, static_cast<int>(w));
    for (std::size_t t = first; t < last; ++t) {
      tw.run_tile(layer, input, tiles[t], tiler.slices(),
                  tiler.kernel_groups(), output,
                  (w == 0 && t == 0) ? trace_ : nullptr);
    }
  });

  // Fixed reduction order: chunk w covers the w-th contiguous run of
  // tiles, so merging partials by ascending w reproduces the serial tile
  // order exactly. (Every field is an integer sum or max, so the merged
  // tally is bit-identical to the serial one - the invariant the
  // tile_parallel property tests pin down.)
  LayerPartial merged;
  for (int w = 0; w < chunks; ++w) {
    merged += workers_[static_cast<std::size_t>(w)]->finish_layer();
  }

  result.timing = merged.timing;
  result.buffers = merged.buffers;
  result.dataflow = merged.dataflow;
  result.external = merged.external;
  result.dwc_activity = merged.dwc_activity;
  result.pwc_activity = merged.pwc_activity;
  result.nonconv_transfer_ops = merged.nonconv_transfer_ops;
  result.nonconv_writeback_ops = merged.nonconv_writeback_ops;
  result.max_abs_psum = merged.max_abs_psum;
  result.pwc_input_zero_fraction =
      merged.pwc_input_total == 0
          ? 0.0
          : static_cast<double>(merged.pwc_input_zeros) /
                static_cast<double>(merged.pwc_input_total);

  // Cross-check against the analytic model (Eq. 1/2) - a wrong cycle count
  // is a simulator bug, never a tolerable approximation.
  const TimingModel analytic(config_);
  const LayerTiming expected = analytic.layer_timing(spec);
  EDEA_ASSERT(result.timing.total_cycles == expected.total_cycles,
              "cycle-accurate simulation diverged from Eq. 1/2 for layer " +
                  spec.to_string());
  return result;
}

NetworkRunResult EdeaAccelerator::run_network(
    const std::vector<nn::QuantDscLayer>& layers,
    const nn::Int8Tensor& input) {
  return std::move(run_network_batch(layers, input, 1).front());
}

std::vector<NetworkRunResult> EdeaAccelerator::run_network_batch(
    const std::vector<nn::QuantDscLayer>& layers, const nn::Int8Tensor& input,
    int batch) {
  EDEA_REQUIRE(!layers.empty(), "network must have at least one layer");
  EDEA_REQUIRE(batch >= 1, "batch must be >= 1");

  // One plan up front: every image's input plus every layer activation gets
  // an offset inside a single allocation, consecutive layers ping-ponging
  // via liveness-based reuse (see nn/arena.hpp for the step axis).
  nn::MemoryPlanner planner;
  const nn::NetworkActivationPlan acts =
      nn::plan_network_activations(planner, layers, input.shape(), batch);
  nn::Arena arena(planner.plan());

  std::vector<NetworkRunResult> results(static_cast<std::size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    std::int8_t* dst = arena.slice<std::int8_t>(
        acts.inputs[static_cast<std::size_t>(b)], input.size());
    std::copy(input.data(), input.data() + input.size(), dst);
  }

  // Layer-major execution (the order the liveness intervals encode): every
  // image runs layer i before any image runs layer i+1.
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::DscLayerSpec& spec = layers[i].spec;
    const nn::Shape out_shape{spec.out_rows(), spec.out_cols(),
                              spec.out_channels};
    for (std::size_t b = 0; b < static_cast<std::size_t>(batch); ++b) {
      const nn::Shape in_shape =
          i == 0 ? input.shape()
                 : nn::Shape{layers[i - 1].spec.out_rows(),
                             layers[i - 1].spec.out_cols(),
                             layers[i - 1].spec.out_channels};
      const nn::BlobId in_id =
          i == 0 ? acts.inputs[b] : acts.outputs[b][i - 1];
      const nn::Int8Tensor in_view = nn::Int8Tensor::view(
          in_shape, arena.slice<std::int8_t>(in_id, in_shape.volume()));
      // Blob bytes may be reused from an expired activation; restore the
      // fresh-tensor zero state the standalone run_layer allocates.
      arena.clear(acts.outputs[b][i]);
      nn::Int8Tensor out_view = nn::Int8Tensor::view(
          out_shape,
          arena.slice<std::int8_t>(acts.outputs[b][i], out_shape.volume()));
      LayerRunResult r = run_layer_into(layers[i], in_view, out_view);
      r.output = out_view;  // deep copy: results outlive the arena
      results[b].layers.push_back(std::move(r));
    }
  }

  const std::size_t peak = arena.plan().peak_bytes;
  for (NetworkRunResult& net : results) {
    net.output = net.layers.back().output;
    net.peak_arena_bytes = peak;
  }
  return results;
}

}  // namespace edea::core
