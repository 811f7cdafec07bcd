#include "core/slot_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "persist/crc32.hpp"
#include "tensor/parallel.hpp"
#include "tensor/quant.hpp"
#include "tensor/sparse.hpp"
#include "tensor/workspace.hpp"

namespace edgetrain::core {

namespace {

// --------------------------------------------------------------------------
// Lossless blob layout (shape travels out of band with the store):
//
//   byte 0          mode: 0 = raw payload, 1 = byte planes
//   mode 0          the 4n plaintext payload bytes
//   mode 1          u32 encoded_size[4] (LE), then the four RLE streams
//
// Per-plane RLE is PackBits-style: control c in [0, 127] copies the next
// c + 1 literal bytes; c in [129, 255] repeats the next byte 257 - c times
// (runs of 3..128); 128 is never emitted, so the decoder treats it (and
// any over/underrun) as corruption. Worst case a plane costs
// n + ceil(n / 128) bytes, and encode() falls back to raw mode whenever
// the plane form is not strictly smaller -- so a Lossless blob never
// exceeds plaintext + 1 byte.
// --------------------------------------------------------------------------

constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModePlanes = 1;
constexpr std::size_t kPlaneHeaderBytes = 1 + 4 * sizeof(std::uint32_t);
constexpr std::int64_t kMinRun = 3;
constexpr std::int64_t kMaxToken = 128;

[[nodiscard]] std::size_t rle_cap(std::int64_t n) {
  return static_cast<std::size_t>(n + (n + kMaxToken - 1) / kMaxToken + 2);
}

/// Encodes @p n bytes at @p src into @p dst (capacity >= rle_cap(n));
/// returns the encoded size.
std::size_t rle_encode(const std::uint8_t* src, std::int64_t n,
                       std::uint8_t* dst) {
  std::size_t out = 0;
  std::int64_t i = 0;
  while (i < n) {
    std::int64_t run = 1;
    while (i + run < n && src[i + run] == src[i] && run < kMaxToken) ++run;
    if (run >= kMinRun) {
      dst[out++] = static_cast<std::uint8_t>(257 - run);
      dst[out++] = src[i];
      i += run;
      continue;
    }
    const std::int64_t literal_start = i;
    std::int64_t literal = 0;
    while (i < n && literal < kMaxToken) {
      if (i + kMinRun - 1 < n && src[i] == src[i + 1] &&
          src[i] == src[i + 2]) {
        break;  // a run worth a token starts here
      }
      ++i;
      ++literal;
    }
    dst[out++] = static_cast<std::uint8_t>(literal - 1);
    std::memcpy(dst + out, src + literal_start,
                static_cast<std::size_t>(literal));
    out += static_cast<std::size_t>(literal);
  }
  return out;
}

[[noreturn]] void corrupt(const std::string& who, const char* what) {
  throw std::runtime_error(who + ": compressed slot blob is corrupt (" +
                           what + "); refusing to return a damaged "
                           "checkpoint");
}

/// Decodes exactly @p n bytes into @p dst; throws on any malformation.
void rle_decode(const std::string& who, const std::uint8_t* src,
                std::size_t size, std::uint8_t* dst, std::int64_t n) {
  std::size_t in = 0;
  std::int64_t out = 0;
  while (in < size) {
    const std::uint8_t control = src[in++];
    if (control < kMaxToken) {
      const std::int64_t len = static_cast<std::int64_t>(control) + 1;
      if (in + static_cast<std::size_t>(len) > size) {
        corrupt(who, "literal token overruns the stream");
      }
      if (out + len > n) corrupt(who, "literal token overruns the payload");
      std::memcpy(dst + out, src + in, static_cast<std::size_t>(len));
      in += static_cast<std::size_t>(len);
      out += len;
    } else if (control > kMaxToken) {
      const std::int64_t len = 257 - static_cast<std::int64_t>(control);
      if (in >= size) corrupt(who, "run token misses its byte");
      if (out + len > n) corrupt(who, "run token overruns the payload");
      std::memset(dst + out, src[in++], static_cast<std::size_t>(len));
      out += len;
    } else {
      corrupt(who, "reserved control byte 128");
    }
  }
  if (out != n) corrupt(who, "stream ends short of the payload");
}

/// Workspace span handed out as bytes (64-byte aligned).
[[nodiscard]] std::uint8_t* scratch_bytes(std::size_t bytes) {
  const auto floats =
      static_cast<std::int64_t>((bytes + sizeof(float) - 1) / sizeof(float));
  return reinterpret_cast<std::uint8_t*>(Workspace::tls().alloc(floats));
}

void store_u32(std::uint8_t* dst, std::uint32_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

void store_u64(std::uint8_t* dst, std::uint64_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

[[nodiscard]] std::uint32_t load_u32(const std::uint8_t* src) {
  std::uint32_t value = 0;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

std::vector<std::uint8_t> encode_lossless(const Tensor& value,
                                          convert::Threading threading) {
  const std::int64_t n = value.numel();
  const auto payload = static_cast<std::size_t>(n) * sizeof(float);
  const auto* src = reinterpret_cast<const std::uint8_t*>(value.data());

  WorkspaceScope scope(Workspace::tls());
  std::uint8_t* planes = scratch_bytes(payload);
  convert::byte_plane_split(src, n, planes, threading);

  const std::size_t cap = rle_cap(n);
  std::uint8_t* streams = scratch_bytes(4 * cap);
  std::size_t sizes[4] = {0, 0, 0, 0};
  // The four plane encodes are independent; grain 1 fans them across the
  // pool (rle_encode cannot throw, so pool execution is safe).
  const auto encode_plane = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t b = begin; b < end; ++b) {
      sizes[b] = rle_encode(planes + b * n, n,
                            streams + static_cast<std::size_t>(b) * cap);
    }
  };
  if (threading == convert::Threading::Parallel) {
    parallel_for(0, 4, 1, encode_plane);
  } else {
    encode_plane(0, 4);
  }

  const std::size_t plane_total =
      kPlaneHeaderBytes + sizes[0] + sizes[1] + sizes[2] + sizes[3];
  if (plane_total >= 1 + payload) {
    // Incompressible: store raw behind the mode byte.
    std::vector<std::uint8_t> blob(1 + payload);
    blob[0] = kModeRaw;
    std::memcpy(blob.data() + 1, src, payload);
    return blob;
  }
  std::vector<std::uint8_t> blob(plane_total);
  blob[0] = kModePlanes;
  std::size_t offset = kPlaneHeaderBytes;
  for (int b = 0; b < 4; ++b) {
    store_u32(blob.data() + 1 + static_cast<std::size_t>(b) * 4,
              static_cast<std::uint32_t>(sizes[b]));
    std::memcpy(blob.data() + offset, streams + static_cast<std::size_t>(b) * cap,
                sizes[b]);
    offset += sizes[b];
  }
  return blob;
}

Tensor decode_lossless(const std::string& who, const Shape& shape,
                       const std::uint8_t* data, std::size_t size,
                       convert::Threading threading) {
  const std::int64_t n = shape.numel();
  const auto payload = static_cast<std::size_t>(n) * sizeof(float);
  if (size < 1) corrupt(who, "empty blob");
  Tensor out = Tensor::empty(shape);
  auto* dst = reinterpret_cast<std::uint8_t*>(out.data());

  if (data[0] == kModeRaw) {
    if (size != 1 + payload) corrupt(who, "raw mode size mismatch");
    std::memcpy(dst, data + 1, payload);
    return out;
  }
  if (data[0] != kModePlanes) corrupt(who, "unknown mode byte");
  if (size < kPlaneHeaderBytes) corrupt(who, "plane header truncated");

  std::size_t sizes[4];
  std::size_t total = kPlaneHeaderBytes;
  for (int b = 0; b < 4; ++b) {
    sizes[b] = load_u32(data + 1 + static_cast<std::size_t>(b) * 4);
    total += sizes[b];
  }
  if (total != size) corrupt(who, "plane sizes disagree with the blob size");

  WorkspaceScope scope(Workspace::tls());
  std::uint8_t* planes = scratch_bytes(payload);
  // Decode serially: the streams need validation and pool jobs must not
  // throw. RLE decode runs at memcpy/memset speed anyway.
  std::size_t offset = kPlaneHeaderBytes;
  for (int b = 0; b < 4; ++b) {
    rle_decode(who, data + offset, sizes[b],
               planes + static_cast<std::int64_t>(b) * n, n);
    offset += sizes[b];
  }
  convert::byte_plane_merge(planes, n, dst, threading);
  return out;
}

// --------------------------------------------------------------------------
// Bitmap blob layout (shape travels out of band with the store):
//
//   byte 0            mode: 0 = dense fallback, 1 = sparse bitmap
//   mode 0 (Bitmap)   the 4n plaintext fp32 payload bytes
//   mode 0 (Fp16)     the 2n binary16 payload bytes
//   mode 1            u32 crc (LE), u32 nnz (LE), ceil(n / 64) u64 bitmap
//                     words (LE), then nnz packed values (fp32 or fp16)
//
// The sparse mode's crc is a CRC-32 (persist/crc32.hpp) seeded with the
// element count n (which travels out of band with the store) and taken
// over the mode byte and everything after the crc field, so every
// truncation and every single-bit flip of a sparse blob -- mode byte, crc
// itself, nnz, bitmap, packed values -- fails either a structural check or
// the checksum; there is no silent corruption. Folding n in also rejects
// decoding under the wrong shape even when the structural lengths happen
// to line up (e.g. n-1 elements sharing the same bitmap word count with a
// zero final element). Belt-and-braces structural checks (nnz vs the
// bitmap's popcount, zero tail bits, exact size) run before the payload is
// touched, so a hostile blob cannot drive an out-of-bounds gather. The
// dense fallback keeps the Lossless raw-mode contract instead (pure
// plaintext behind a mode byte, blob <= payload + 1): a value-byte flip
// there is indistinguishable from the same flip on an uncompressed slot.
// --------------------------------------------------------------------------

constexpr std::uint8_t kBitmapModeDense = 0;
constexpr std::uint8_t kBitmapModeSparse = 1;
/// mode byte + u32 crc + u32 nnz.
constexpr std::size_t kBitmapHeaderBytes = 1 + 2 * sizeof(std::uint32_t);
constexpr std::size_t kBitmapCrcOffset = 1;
constexpr std::size_t kBitmapNnzOffset = 1 + sizeof(std::uint32_t);

[[nodiscard]] std::uint32_t bitmap_blob_crc(const std::uint8_t* data,
                                            std::size_t size,
                                            std::int64_t numel) {
  std::uint32_t crc = persist::crc32_init();
  std::uint8_t n_le[sizeof(std::uint64_t)];
  store_u64(n_le, static_cast<std::uint64_t>(numel));
  crc = persist::crc32_update(crc, n_le, sizeof(n_le));
  crc = persist::crc32_update(crc, data, 1);  // mode byte
  crc = persist::crc32_update(crc, data + kBitmapNnzOffset,
                              size - kBitmapNnzOffset);
  return persist::crc32_final(crc);
}

std::vector<std::uint8_t> encode_bitmap(const Tensor& value, bool halve,
                                        convert::Threading threading) {
  const std::int64_t n = value.numel();
  const std::size_t value_size = halve ? sizeof(std::uint16_t) : sizeof(float);
  const std::size_t dense_total = 1 + static_cast<std::size_t>(n) * value_size;

  WorkspaceScope scope(Workspace::tls());
  const std::int64_t n_words = sparse::bitmap_words(n);
  auto* bitmap = reinterpret_cast<std::uint64_t*>(
      scratch_bytes(static_cast<std::size_t>(n_words) * sizeof(std::uint64_t)));
  const std::int64_t nnz = sparse::nonzero_bitmap(value.data(), n, bitmap,
                                                  threading);

  const std::size_t sparse_total =
      kBitmapHeaderBytes +
      static_cast<std::size_t>(n_words) * sizeof(std::uint64_t) +
      static_cast<std::size_t>(nnz) * value_size;
  if (sparse_total >= dense_total) {
    // Too dense for the bitmap to pay: store the dense form behind the
    // mode byte (raw fp32, or the straight fp16 cast).
    std::vector<std::uint8_t> blob(dense_total);
    blob[0] = kBitmapModeDense;
    if (halve) {
      auto* half = reinterpret_cast<std::uint16_t*>(
          scratch_bytes(static_cast<std::size_t>(n) * sizeof(std::uint16_t)));
      convert::fp32_to_fp16(value.data(), half, n, threading);
      std::memcpy(blob.data() + 1, half, blob.size() - 1);
    } else {
      std::memcpy(blob.data() + 1, value.data(), blob.size() - 1);
    }
    return blob;
  }

  // Compact through aligned scratch: the blob's value area sits at an odd
  // offset, so the kernels never store through it directly.
  auto* packed = reinterpret_cast<float*>(
      scratch_bytes(static_cast<std::size_t>(nnz) * sizeof(float)));
  sparse::compact_nonzeros(value.data(), bitmap, n, packed, threading);

  std::vector<std::uint8_t> blob(sparse_total);
  blob[0] = kBitmapModeSparse;
  store_u32(blob.data() + kBitmapNnzOffset, static_cast<std::uint32_t>(nnz));
  std::memcpy(blob.data() + kBitmapHeaderBytes, bitmap,
              static_cast<std::size_t>(n_words) * sizeof(std::uint64_t));
  std::uint8_t* values =
      blob.data() + kBitmapHeaderBytes +
      static_cast<std::size_t>(n_words) * sizeof(std::uint64_t);
  if (halve) {
    auto* half = reinterpret_cast<std::uint16_t*>(
        scratch_bytes(static_cast<std::size_t>(nnz) * sizeof(std::uint16_t)));
    convert::fp32_to_fp16(packed, half, nnz, threading);
    std::memcpy(values, half, static_cast<std::size_t>(nnz) * value_size);
  } else {
    std::memcpy(values, packed, static_cast<std::size_t>(nnz) * value_size);
  }
  store_u32(blob.data() + kBitmapCrcOffset,
            bitmap_blob_crc(blob.data(), blob.size(), n));
  return blob;
}

Tensor decode_bitmap(const std::string& who, const Shape& shape,
                     const std::uint8_t* data, std::size_t size, bool halve,
                     convert::Threading threading) {
  const std::int64_t n = shape.numel();
  const std::size_t value_size = halve ? sizeof(std::uint16_t) : sizeof(float);
  if (size < 1) corrupt(who, "empty blob");

  WorkspaceScope scope(Workspace::tls());
  if (data[0] == kBitmapModeDense) {
    if (size != 1 + static_cast<std::size_t>(n) * value_size) {
      corrupt(who, "dense mode size mismatch");
    }
    Tensor out = Tensor::empty(shape);
    if (halve) {
      auto* half = reinterpret_cast<std::uint16_t*>(
          scratch_bytes(static_cast<std::size_t>(n) * sizeof(std::uint16_t)));
      std::memcpy(half, data + 1, size - 1);
      convert::fp16_to_fp32(half, out.data(), n, threading);
    } else {
      std::memcpy(out.data(), data + 1, size - 1);
    }
    return out;
  }
  if (data[0] != kBitmapModeSparse) corrupt(who, "unknown mode byte");

  if (size < kBitmapHeaderBytes) corrupt(who, "bitmap header truncated");
  const std::uint32_t stored_crc = load_u32(data + kBitmapCrcOffset);
  const std::uint32_t nnz_u32 = load_u32(data + kBitmapNnzOffset);
  const auto nnz = static_cast<std::int64_t>(nnz_u32);
  if (nnz > n) corrupt(who, "nonzero count exceeds the payload");
  const std::int64_t n_words = sparse::bitmap_words(n);
  const std::size_t expected =
      kBitmapHeaderBytes +
      static_cast<std::size_t>(n_words) * sizeof(std::uint64_t) +
      static_cast<std::size_t>(nnz) * value_size;
  if (size != expected) corrupt(who, "bitmap blob size mismatch");
  if (bitmap_blob_crc(data, size, n) != stored_crc) {
    corrupt(who, "checksum mismatch");
  }

  auto* bitmap = reinterpret_cast<std::uint64_t*>(
      scratch_bytes(static_cast<std::size_t>(n_words) * sizeof(std::uint64_t)));
  std::memcpy(bitmap, data + kBitmapHeaderBytes,
              static_cast<std::size_t>(n_words) * sizeof(std::uint64_t));
  // Redundant with the checksum, but these keep the scatter provably
  // in-bounds without trusting 2^-32 odds: the bitmap's population must
  // match nnz, and bits past the payload must be clear.
  if (sparse::popcount_words(bitmap, n_words, threading) != nnz) {
    corrupt(who, "bitmap population disagrees with the nonzero count");
  }
  if (n % 64 != 0 && n_words > 0) {
    const std::uint64_t tail_mask =
        ~((std::uint64_t{1} << static_cast<unsigned>(n % 64)) - 1);
    if ((bitmap[n_words - 1] & tail_mask) != 0) {
      corrupt(who, "bitmap tail bits set past the payload");
    }
  }

  const std::uint8_t* values =
      data + kBitmapHeaderBytes +
      static_cast<std::size_t>(n_words) * sizeof(std::uint64_t);
  auto* packed = reinterpret_cast<float*>(
      scratch_bytes(static_cast<std::size_t>(nnz) * sizeof(float)));
  if (halve) {
    auto* half = reinterpret_cast<std::uint16_t*>(
        scratch_bytes(static_cast<std::size_t>(nnz) * sizeof(std::uint16_t)));
    std::memcpy(half, values, static_cast<std::size_t>(nnz) * value_size);
    convert::fp16_to_fp32(half, packed, nnz, threading);
  } else {
    std::memcpy(packed, values, static_cast<std::size_t>(nnz) * value_size);
  }
  Tensor out = Tensor::empty(shape);
  sparse::scatter_nonzeros(packed, bitmap, n, out.data(), threading);
  return out;
}

// --------------------------------------------------------------------------
// Int8 blob layout (shape travels out of band with the store):
//
//   bytes 0..3      f32 scale (LE), finite and > 0
//   byte 4          u8 zero point
//   bytes 5..       n affine u8 codes, real = scale * (q - zero point)
//
// The parameters come from tensor/quant.hpp over the tensor's own
// [min, max], widened to include 0.0 so post-ReLU zeros restore exactly.
// --------------------------------------------------------------------------

constexpr std::size_t kInt8HeaderBytes = sizeof(float) + 1;

std::vector<std::uint8_t> encode_int8(const Tensor& value,
                                      convert::Threading threading) {
  const std::int64_t n = value.numel();
  const float* src = value.data();
  quant::QuantParams params;
  if (n > 0) {
    const auto [lo, hi] = std::minmax_element(src, src + n);
    params = quant::choose_u8_params(*lo, *hi);
  }
  if (!std::isfinite(params.scale)) {
    // decode() rejects such a blob, so refuse to store one.
    throw std::runtime_error(
        "SlotCodec int8: activation range is not finite; cannot quantise");
  }
  std::vector<std::uint8_t> blob(kInt8HeaderBytes +
                                 static_cast<std::size_t>(n));
  std::memcpy(blob.data(), &params.scale, sizeof(float));
  blob[sizeof(float)] = static_cast<std::uint8_t>(params.zero_point);
  quant::quantize_u8(src, blob.data() + kInt8HeaderBytes, n, params,
                     threading);
  return blob;
}

Tensor decode_int8(const std::string& who, const Shape& shape,
                   const std::uint8_t* data, std::size_t size,
                   convert::Threading threading) {
  const std::int64_t n = shape.numel();
  if (size != kInt8HeaderBytes + static_cast<std::size_t>(n)) {
    corrupt(who, "int8 blob size mismatch");
  }
  quant::QuantParams params;
  std::memcpy(&params.scale, data, sizeof(float));
  params.zero_point = data[sizeof(float)];
  if (!(params.scale > 0.0F) || !std::isfinite(params.scale)) {
    corrupt(who, "int8 scale is not finite and positive");
  }
  Tensor out = Tensor::empty(shape);
  quant::dequantize_u8(data + kInt8HeaderBytes, out.data(), n, params,
                       threading);
  return out;
}

}  // namespace

std::string to_string(SlotCodec codec) {
  switch (codec) {
    case SlotCodec::None: return "none";
    case SlotCodec::Lossless: return "lossless";
    case SlotCodec::Fp16: return "fp16";
    case SlotCodec::Bf16: return "bf16";
    case SlotCodec::Bitmap: return "bitmap";
    case SlotCodec::BitmapFp16: return "bitmap-fp16";
    case SlotCodec::Int8: return "int8";
  }
  return "?";
}

std::optional<SlotCodec> parse_slot_codec(std::string_view name) {
  if (name == "none") return SlotCodec::None;
  if (name == "lossless") return SlotCodec::Lossless;
  if (name == "fp16") return SlotCodec::Fp16;
  if (name == "bf16") return SlotCodec::Bf16;
  if (name == "bitmap") return SlotCodec::Bitmap;
  if (name == "bitmap-fp16") return SlotCodec::BitmapFp16;
  if (name == "int8") return SlotCodec::Int8;
  return std::nullopt;
}

double planning_bytes_ratio(SlotCodec codec) {
  switch (codec) {
    case SlotCodec::None:
    case SlotCodec::Lossless:
    case SlotCodec::Bitmap:
      return 1.0;
    case SlotCodec::Fp16:
    case SlotCodec::Bf16:
    case SlotCodec::BitmapFp16:
      return 0.5;
    case SlotCodec::Int8:
      return 0.25;
  }
  return 1.0;
}

namespace codec {

std::size_t max_encoded_bytes(SlotCodec codec, std::int64_t numel) {
  const auto n = static_cast<std::size_t>(numel);
  switch (codec) {
    case SlotCodec::None: return n * sizeof(float);
    case SlotCodec::Lossless: return 1 + n * sizeof(float);
    case SlotCodec::Fp16:
    case SlotCodec::Bf16:
      return n * sizeof(std::uint16_t);
    case SlotCodec::Bitmap: return 1 + n * sizeof(float);
    case SlotCodec::BitmapFp16: return 1 + n * sizeof(std::uint16_t);
    case SlotCodec::Int8: return kInt8HeaderBytes + n;
  }
  return n * sizeof(float);
}

std::vector<std::uint8_t> encode(SlotCodec codec, const Tensor& value,
                                 convert::Threading threading) {
  const std::int64_t n = value.numel();
  switch (codec) {
    case SlotCodec::None: {
      std::vector<std::uint8_t> blob(static_cast<std::size_t>(n) *
                                     sizeof(float));
      std::memcpy(blob.data(), value.data(), blob.size());
      return blob;
    }
    case SlotCodec::Lossless:
      return encode_lossless(value, threading);
    case SlotCodec::Fp16:
    case SlotCodec::Bf16: {
      std::vector<std::uint8_t> blob(static_cast<std::size_t>(n) *
                                     sizeof(std::uint16_t));
      auto* dst = reinterpret_cast<std::uint16_t*>(blob.data());
      if (codec == SlotCodec::Fp16) {
        convert::fp32_to_fp16(value.data(), dst, n, threading);
      } else {
        convert::fp32_to_bf16(value.data(), dst, n, threading);
      }
      return blob;
    }
    case SlotCodec::Bitmap:
      return encode_bitmap(value, /*halve=*/false, threading);
    case SlotCodec::BitmapFp16:
      return encode_bitmap(value, /*halve=*/true, threading);
    case SlotCodec::Int8:
      return encode_int8(value, threading);
  }
  throw std::logic_error("SlotCodec: unknown codec");
}

Tensor decode(SlotCodec codec, const std::string& who, const Shape& shape,
              const std::uint8_t* data, std::size_t size,
              convert::Threading threading) {
  const std::int64_t n = shape.numel();
  switch (codec) {
    case SlotCodec::None: {
      if (size != static_cast<std::size_t>(n) * sizeof(float)) {
        corrupt(who, "raw blob size mismatch");
      }
      Tensor out = Tensor::empty(shape);
      std::memcpy(out.data(), data, size);
      return out;
    }
    case SlotCodec::Lossless:
      return decode_lossless(who, shape, data, size, threading);
    case SlotCodec::Fp16:
    case SlotCodec::Bf16: {
      if (size != static_cast<std::size_t>(n) * sizeof(std::uint16_t)) {
        corrupt(who, "half blob size mismatch");
      }
      Tensor out = Tensor::empty(shape);
      const auto* src = reinterpret_cast<const std::uint16_t*>(data);
      if (codec == SlotCodec::Fp16) {
        convert::fp16_to_fp32(src, out.data(), n, threading);
      } else {
        convert::bf16_to_fp32(src, out.data(), n, threading);
      }
      return out;
    }
    case SlotCodec::Bitmap:
      return decode_bitmap(who, shape, data, size, /*halve=*/false,
                           threading);
    case SlotCodec::BitmapFp16:
      return decode_bitmap(who, shape, data, size, /*halve=*/true, threading);
    case SlotCodec::Int8:
      return decode_int8(who, shape, data, size, threading);
  }
  throw std::logic_error("SlotCodec: unknown codec");
}

}  // namespace codec

}  // namespace edgetrain::core
