#include "asmkit/objfile.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "isa/encoding.hpp"

namespace t1000 {
namespace {

constexpr std::uint32_t kMagic = 0x314B3154;  // "T1K1"
constexpr std::uint32_t kVersion = 1;
// The header's counts are claims: text words and data bytes are read one
// at a time into buffers reserved for at most this many, so a short file
// ends in "truncated object file", not a multi-gigabyte allocation.
constexpr std::size_t kMaxReserve = std::size_t{1} << 16;

void put_u32(std::ostream& os, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  os.write(buf, 4);
}

void put_i32(std::ostream& os, std::int32_t v) {
  put_u32(os, static_cast<std::uint32_t>(v));
}

void put_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}

void put_string(std::ostream& os, const std::string& s) {
  put_u32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::uint32_t get_u32(std::istream& is) {
  char buf[4];
  is.read(buf, 4);
  if (!is) throw ObjError("truncated object file");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[i])) << (8 * i);
  }
  return v;
}

std::int32_t get_i32(std::istream& is) {
  return static_cast<std::int32_t>(get_u32(is));
}

std::uint8_t get_u8(std::istream& is) {
  const int c = is.get();
  if (c < 0) throw ObjError("truncated object file");
  return static_cast<std::uint8_t>(c);
}

std::string get_string(std::istream& is) {
  const std::uint32_t n = get_u32(is);
  if (n > (1u << 20)) throw ObjError("implausible string length");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw ObjError("truncated object file");
  return s;
}

}  // namespace

void save_object(std::ostream& os, const Program& program,
                 const ExtInstTable* ext_table) {
  put_u32(os, kMagic);
  put_u32(os, kVersion);
  const std::vector<std::uint32_t> words = program.encode_text();
  put_u32(os, static_cast<std::uint32_t>(words.size()));
  put_u32(os, static_cast<std::uint32_t>(program.data.size()));
  put_u32(os, static_cast<std::uint32_t>(program.text_symbols.size()));
  put_u32(os, static_cast<std::uint32_t>(program.data_symbols.size()));
  put_u32(os, ext_table == nullptr
                  ? 0
                  : static_cast<std::uint32_t>(ext_table->size()));
  for (const std::uint32_t w : words) put_u32(os, w);
  os.write(reinterpret_cast<const char*>(program.data.data()),
           static_cast<std::streamsize>(program.data.size()));
  for (const auto& [name, index] : program.text_symbols) {
    put_string(os, name);
    put_i32(os, index);
  }
  for (const auto& [name, addr] : program.data_symbols) {
    put_string(os, name);
    put_u32(os, addr);
  }
  if (ext_table != nullptr) {
    for (const ExtInstDef& def : ext_table->defs()) {
      put_u8(os, static_cast<std::uint8_t>(def.num_inputs()));
      put_u8(os, static_cast<std::uint8_t>(def.length()));
      for (const MicroOp& u : def.uops()) {
        put_u8(os, static_cast<std::uint8_t>(u.op));
        put_u8(os, static_cast<std::uint8_t>(u.dst));
        put_u8(os, static_cast<std::uint8_t>(u.a));
        put_u8(os, static_cast<std::uint8_t>(u.b));
        put_i32(os, u.imm);
      }
    }
  }
  if (!os) throw ObjError("object write failed");
}

LoadedObject load_object(std::istream& is) {
  if (get_u32(is) != kMagic) throw ObjError("bad magic: not a T1K1 object");
  if (get_u32(is) != kVersion) throw ObjError("unsupported object version");
  const std::uint32_t n_text = get_u32(is);
  const std::uint32_t n_data = get_u32(is);
  const std::uint32_t n_tsym = get_u32(is);
  const std::uint32_t n_dsym = get_u32(is);
  const std::uint32_t n_defs = get_u32(is);

  LoadedObject obj;
  std::vector<std::uint32_t> words;
  words.reserve(std::min<std::size_t>(n_text, kMaxReserve));
  for (std::uint32_t i = 0; i < n_text; ++i) words.push_back(get_u32(is));
  obj.program = decode_text(words);
  std::vector<std::uint8_t>& data = obj.program.data;
  data.reserve(std::min<std::size_t>(n_data, kMaxReserve));
  for (std::uint32_t i = 0; i < n_data; ++i) data.push_back(get_u8(is));
  // A text symbol is an instruction index (the executor starts at `main`,
  // the CFG takes every symbol as a block leader): [0, size] is the range
  // the verifier's wf.text-symbol rule accepts.
  const int size = obj.program.size();
  for (std::uint32_t i = 0; i < n_tsym; ++i) {
    const std::string name = get_string(is);
    const std::int32_t index = get_i32(is);
    if (index < 0 || index > size) {
      throw ObjError("text symbol '" + name + "' index " +
                     std::to_string(index) + " outside [0, " +
                     std::to_string(size) + "]");
    }
    obj.program.text_symbols[name] = index;
  }
  for (std::uint32_t i = 0; i < n_dsym; ++i) {
    const std::string name = get_string(is);
    obj.program.data_symbols[name] = get_u32(is);
  }
  for (std::uint32_t i = 0; i < n_defs; ++i) {
    const int num_inputs = get_u8(is);
    const int count = get_u8(is);
    std::vector<MicroOp> uops;
    uops.reserve(static_cast<std::size_t>(count));
    for (int u = 0; u < count; ++u) {
      MicroOp op;
      op.op = static_cast<Opcode>(get_u8(is));
      if (op.op >= Opcode::kNumOpcodes) throw ObjError("bad micro-opcode");
      op.dst = static_cast<std::int8_t>(get_u8(is));
      op.a = static_cast<std::int8_t>(get_u8(is));
      op.b = static_cast<std::int8_t>(get_u8(is));
      op.imm = get_i32(is);
      uops.push_back(op);
    }
    try {
      const ConfId id = obj.ext_table.intern(ExtInstDef(num_inputs, uops));
      if (id != i) throw ObjError("duplicate ext-inst definition in object");
    } catch (const std::invalid_argument& e) {
      throw ObjError(std::string("malformed ext-inst definition: ") + e.what());
    }
  }
  return obj;
}

void save_object_file(const std::string& path, const Program& program,
                      const ExtInstTable* ext_table) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw ObjError("cannot open " + path + " for writing");
  save_object(os, program, ext_table);
}

LoadedObject load_object_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw ObjError("cannot open " + path);
  return load_object(is);
}

}  // namespace t1000
