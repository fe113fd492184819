#include "asmkit/objfile.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "asmkit/assembler.hpp"

namespace t1000 {
namespace {

Program sample_program() {
  return assemble(R"(
        .data
  buf:  .word 1, 2, 3
  msg:  .asciiz "hi"
        .text
  main: la $t0, buf
  loop: lw $t1, 0($t0)
        addu $v0, $v0, $t1
        addiu $t0, $t0, 4
        slti $at, $v0, 100
        bne $at, $zero, loop
        ext $t2, $t0, $t1, 0
        halt
  )");
}

// Overwrites the little-endian u32 at `offset` of a saved object.
void patch_u32(std::string& bytes, std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<char>(v >> (8 * i));
  }
}

void expect_obj_error(const std::string& bytes, const std::string& what) {
  std::stringstream in(bytes);
  try {
    load_object(in);
    ADD_FAILURE() << "loaded; expected " << what;
  } catch (const ObjError& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
}

ExtInstTable sample_table() {
  ExtInstTable t;
  t.intern(ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 3},
                          {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  t.intern(ExtInstDef(1, {{.op = Opcode::kAndi, .dst = 2, .a = 0, .imm = 0xFF},
                          {.op = Opcode::kXori, .dst = 3, .a = 2, .imm = 1}}));
  return t;
}

TEST(ObjFile, RoundTripsProgram) {
  const Program p = sample_program();
  std::stringstream buf;
  save_object(buf, p);
  const LoadedObject obj = load_object(buf);
  EXPECT_EQ(obj.program.text, p.text);
  EXPECT_EQ(obj.program.data, p.data);
  EXPECT_EQ(obj.program.text_symbols, p.text_symbols);
  EXPECT_EQ(obj.program.data_symbols, p.data_symbols);
  EXPECT_EQ(obj.ext_table.size(), 0);
}

TEST(ObjFile, RoundTripsExtTable) {
  const Program p = sample_program();
  const ExtInstTable t = sample_table();
  std::stringstream buf;
  save_object(buf, p, &t);
  const LoadedObject obj = load_object(buf);
  ASSERT_EQ(obj.ext_table.size(), 2);
  EXPECT_EQ(obj.ext_table.at(0).signature(), t.at(0).signature());
  EXPECT_EQ(obj.ext_table.at(1).signature(), t.at(1).signature());
  EXPECT_EQ(obj.ext_table.at(0).eval(3, 10), t.at(0).eval(3, 10));
}

TEST(ObjFile, EmptyProgramRoundTrips) {
  std::stringstream buf;
  save_object(buf, Program{});
  const LoadedObject obj = load_object(buf);
  EXPECT_EQ(obj.program.size(), 0);
}

TEST(ObjFile, RejectsBadMagic) {
  std::stringstream buf("this is not an object file at all");
  EXPECT_THROW(load_object(buf), ObjError);
}

TEST(ObjFile, RejectsTruncation) {
  const Program p = sample_program();
  std::stringstream buf;
  save_object(buf, p);
  const std::string full = buf.str();
  for (const std::size_t cut : {std::size_t{8}, std::size_t{16}, full.size() / 2, full.size() - 1}) {
    std::stringstream cut_buf(full.substr(0, cut));
    EXPECT_THROW(load_object(cut_buf), ObjError) << "cut at " << cut;
  }
}

TEST(ObjFile, RejectsGarbageMicroOps) {
  // Claim one ext def, then feed malformed bytes.
  const Program p = assemble("halt");
  std::stringstream buf;
  save_object(buf, p);
  std::string bytes = buf.str();
  bytes[24] = 1;  // n_defs field (7th u32)
  bytes += std::string("\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF", 8);
  std::stringstream bad(bytes);
  EXPECT_THROW(load_object(bad), ObjError);
}

TEST(ObjFile, RejectsTextSymbolsOutsideTheText) {
  // A text symbol is an instruction index: the executor starts at `main`
  // and the CFG takes every symbol as a block leader, so an index outside
  // [0, size] used to load and then corrupt the heap. The symbol table
  // entry is the name, then its i32 index.
  const Program p = sample_program();
  std::stringstream buf;
  save_object(buf, p);
  const std::size_t main_index = buf.str().find("main") + 4;
  for (const std::int32_t index : {-10, -1, p.size() + 1}) {
    std::string bytes = buf.str();
    patch_u32(bytes, main_index, static_cast<std::uint32_t>(index));
    expect_obj_error(bytes, "text symbol 'main' index " +
                                std::to_string(index) + " outside [0, " +
                                std::to_string(p.size()) + "]");
  }
  // One past the last instruction is where a trailing label sits.
  std::string bytes = buf.str();
  patch_u32(bytes, main_index, static_cast<std::uint32_t>(p.size()));
  std::stringstream end(bytes);
  EXPECT_EQ(load_object(end).program.text_symbols.at("main"), p.size());
}

TEST(ObjFile, HugeHeaderCountsEndInTruncation) {
  // Header counts are claims: 0xFFFFFFF0 text words (bytes 8..11) or
  // 0xF0000000 data bytes (12..15) used to be reserved or zero-filled
  // before any was read.
  std::stringstream buf;
  save_object(buf, sample_program());
  for (const std::size_t field : {8, 12}) {
    std::string bytes = buf.str();
    patch_u32(bytes, field, field == 8 ? 0xFFFFFFF0u : 0xF0000000u);
    expect_obj_error(bytes, "truncated object file");
  }
}

TEST(ObjFile, FileRoundTrip) {
  const Program p = sample_program();
  const ExtInstTable t = sample_table();
  const std::string path = ::testing::TempDir() + "/t1000_objfile_test.obj";
  save_object_file(path, p, &t);
  const LoadedObject obj = load_object_file(path);
  EXPECT_EQ(obj.program.text, p.text);
  EXPECT_EQ(obj.ext_table.size(), 2);
}

TEST(ObjFile, MissingFileThrows) {
  EXPECT_THROW(load_object_file("/nonexistent/path.obj"), ObjError);
}

}  // namespace
}  // namespace t1000
