/**
 * @file
 * The repo's one versioned-binary-envelope API: little-endian field
 * codecs, the FNV-1a/splitmix64 hashes used for content checksums and
 * config fingerprints, and the framed envelope every dasdram binary
 * artifact opens with — magic, schema version, payload length, payload,
 * trailing checksum.
 *
 * Both on-disk binary formats build on this: the binary trace format
 * (workload/trace_format.hh, a headerless-payload special case that
 * predates the envelope and keeps its exact byte layout) and the
 * checkpoint format (common/serde.hh). Readers share the same
 * refuse-on-bad-magic / refuse-on-too-new-version semantics, reported
 * as error strings so tools can fatal() and tests can assert.
 */

#ifndef DASDRAM_COMMON_BINFMT_HH
#define DASDRAM_COMMON_BINFMT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dasdram
{
namespace binfmt
{

/// @name Little-endian field codec
/// @{

/** Write the low @p bytes bytes of @p v little-endian at @p dst. */
void putLe(unsigned char *dst, std::uint64_t v, unsigned bytes);

/** Read @p bytes little-endian bytes at @p src. */
std::uint64_t getLe(const unsigned char *src, unsigned bytes);

/** Append the low @p bytes bytes of @p v to @p out. */
void appendLe(std::vector<unsigned char> &out, std::uint64_t v,
              unsigned bytes);

/// @}
/// @name Hashes
/// @{

/** FNV-1a over @p n bytes, continuing from @p h (pass the default to
 *  start a fresh hash). The envelope checksum and the config
 *  fingerprint both use this. */
std::uint64_t fnv1a64(const void *data, std::size_t n,
                      std::uint64_t h = 0xcbf29ce484222325ull);

/** splitmix64 mixing step; chains hashes into derived seeds. Inline:
 *  the request tracer calls it per sampling decision. */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// @}
/// @name Versioned envelope
/// @{

/** Fixed envelope header size: u32 magic, u16 version, u16 flags,
 *  u64 payload length. A u64 FNV-1a checksum over header + payload
 *  trails the payload. */
constexpr std::size_t kEnvelopeHeaderBytes = 16;
constexpr std::size_t kEnvelopeChecksumBytes = 8;

/** Result of decoding an envelope: ok() or a human-readable error. */
struct EnvelopeResult
{
    std::string error; ///< empty on success
    std::uint16_t version = 0;
    std::vector<unsigned char> payload;

    bool ok() const { return error.empty(); }
};

/** Frame @p payload into a full envelope byte stream. */
std::vector<unsigned char> encodeEnvelope(
    std::uint32_t magic, std::uint16_t version,
    const std::vector<unsigned char> &payload);

/**
 * Decode and validate an envelope: magic must equal @p magic, the
 * version must be <= @p max_version (too-new files are refused, not
 * misread), the length must frame the buffer exactly and the trailing
 * checksum must match. @p what names the artifact in error messages
 * (e.g. "checkpoint").
 */
EnvelopeResult decodeEnvelope(const std::vector<unsigned char> &bytes,
                              std::uint32_t magic,
                              std::uint16_t max_version,
                              const std::string &what);

/** encodeEnvelope + write to @p path; returns an error string (empty
 *  on success). */
std::string writeEnvelopeFile(const std::string &path, std::uint32_t magic,
                              std::uint16_t version,
                              const std::vector<unsigned char> &payload);

/** Read @p path fully + decodeEnvelope. */
EnvelopeResult readEnvelopeFile(const std::string &path,
                                std::uint32_t magic,
                                std::uint16_t max_version,
                                const std::string &what);

/// @}

} // namespace binfmt
} // namespace dasdram

#endif // DASDRAM_COMMON_BINFMT_HH
