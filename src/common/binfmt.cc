#include "binfmt.hh"

#include <cstdio>

#include "common/strfmt.hh"

namespace dasdram
{
namespace binfmt
{

void
putLe(unsigned char *dst, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        dst[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t
getLe(const unsigned char *src, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    return v;
}

void
appendLe(std::vector<unsigned char> &out, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

std::uint64_t
fnv1a64(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<unsigned char>
encodeEnvelope(std::uint32_t magic, std::uint16_t version,
               const std::vector<unsigned char> &payload)
{
    std::vector<unsigned char> out;
    out.reserve(kEnvelopeHeaderBytes + payload.size() +
                kEnvelopeChecksumBytes);
    appendLe(out, magic, 4);
    appendLe(out, version, 2);
    appendLe(out, 0, 2); // flags, reserved
    appendLe(out, payload.size(), 8);
    out.insert(out.end(), payload.begin(), payload.end());
    std::uint64_t sum = fnv1a64(out.data(), out.size());
    appendLe(out, sum, 8);
    return out;
}

EnvelopeResult
decodeEnvelope(const std::vector<unsigned char> &bytes,
               std::uint32_t magic, std::uint16_t max_version,
               const std::string &what)
{
    EnvelopeResult r;
    if (bytes.size() < kEnvelopeHeaderBytes + kEnvelopeChecksumBytes) {
        r.error = formatStr("truncated {}: {} byte(s), need at least {}",
                            what, bytes.size(),
                            kEnvelopeHeaderBytes + kEnvelopeChecksumBytes);
        return r;
    }
    std::uint32_t got_magic =
        static_cast<std::uint32_t>(getLe(bytes.data(), 4));
    if (got_magic != magic) {
        r.error = formatStr("bad magic 0x{:x} (not a dasdram {})",
                            got_magic, what);
        return r;
    }
    r.version = static_cast<std::uint16_t>(getLe(bytes.data() + 4, 2));
    if (r.version > max_version) {
        r.error = formatStr("{} version {} is newer than this build "
                            "understands (max {})",
                            what, r.version, max_version);
        return r;
    }
    std::uint64_t len = getLe(bytes.data() + 8, 8);
    if (bytes.size() !=
        kEnvelopeHeaderBytes + len + kEnvelopeChecksumBytes) {
        r.error = formatStr("truncated {}: header frames {} payload "
                            "byte(s), file holds {}",
                            what, len,
                            bytes.size() - kEnvelopeHeaderBytes -
                                kEnvelopeChecksumBytes);
        return r;
    }
    std::size_t sum_at = kEnvelopeHeaderBytes + len;
    std::uint64_t want = getLe(bytes.data() + sum_at, 8);
    std::uint64_t got = fnv1a64(bytes.data(), sum_at);
    if (want != got) {
        r.error = formatStr("corrupt {}: checksum mismatch", what);
        return r;
    }
    r.payload.assign(bytes.begin() + kEnvelopeHeaderBytes,
                     bytes.begin() + sum_at);
    return r;
}

std::string
writeEnvelopeFile(const std::string &path, std::uint32_t magic,
                  std::uint16_t version,
                  const std::vector<unsigned char> &payload)
{
    std::vector<unsigned char> bytes =
        encodeEnvelope(magic, version, payload);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return formatStr("cannot open '{}' for writing", path);
    std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool ok = n == bytes.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return formatStr("short write to '{}'", path);
    return "";
}

EnvelopeResult
readEnvelopeFile(const std::string &path, std::uint32_t magic,
                 std::uint16_t max_version, const std::string &what)
{
    EnvelopeResult r;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        r.error = formatStr("cannot open {} '{}'", what, path);
        return r;
    }
    std::vector<unsigned char> bytes;
    unsigned char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err) {
        r.error = formatStr("I/O error reading {} '{}'", what, path);
        return r;
    }
    r = decodeEnvelope(bytes, magic, max_version, what);
    if (!r.ok())
        r.error += formatStr(" ('{}')", path);
    return r;
}

} // namespace binfmt
} // namespace dasdram
