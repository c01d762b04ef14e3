// On-disk I/O paths (the string-based parsers are covered elsewhere):
// Alignment::read_file format sniffing and read_nexus_file, including the
// bundled sample data set (located through PLF_DATA_DIR, set by CMake).
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "phylo/alignment.hpp"
#include "phylo/nexus.hpp"
#include "util/error.hpp"

namespace plf::phylo {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  f << content;
}

TEST(FileIoTest, ReadFileSniffsFasta) {
  const std::string path = temp_path("sniff.fasta");
  write_file(path, "  \n>alpha\nACGT\n>beta\nTGCA\n");
  const Alignment a = Alignment::read_file(path);
  EXPECT_EQ(a.n_taxa(), 2u);
  EXPECT_EQ(a.sequence(0), "ACGT");
}

TEST(FileIoTest, ReadFileSniffsPhylip) {
  const std::string path = temp_path("sniff.phy");
  write_file(path, "2 4\nalpha ACGT\nbeta TGCA\n");
  const Alignment a = Alignment::read_file(path);
  EXPECT_EQ(a.n_taxa(), 2u);
  EXPECT_EQ(a.name(1), "beta");
}

TEST(FileIoTest, ReadFileMissingPathThrows) {
  EXPECT_THROW(Alignment::read_file("/definitely/not/here.fasta"), Error);
  EXPECT_THROW(read_nexus_file("/definitely/not/here.nex"), Error);
}

TEST(FileIoTest, NexusFileRoundTrip) {
  const std::string path = temp_path("round.nex");
  {
    Alignment a({"x", "y", "z"}, {"ACGTA", "AC-TA", "ANGTA"});
    std::ofstream f(path);
    write_nexus(f, a, {{"t", "(x:0.1,y:0.1,z:0.2);"}});
  }
  const NexusFile nx = read_nexus_file(path);
  ASSERT_TRUE(nx.has_alignment);
  EXPECT_EQ(nx.alignment.n_taxa(), 3u);
  EXPECT_EQ(nx.alignment.sequence(1), "AC-TA");
  ASSERT_EQ(nx.trees.size(), 1u);
}

TEST(FileIoTest, BundledSampleParses) {
  // The repo ships data/sample_8taxa.nex; CMake passes its directory in, so
  // the test finds it from any build tree and working directory.
  const std::string path = std::string(PLF_DATA_DIR) + "/sample_8taxa.nex";
  const NexusFile nx = read_nexus_file(path);
  EXPECT_TRUE(nx.has_alignment);
  EXPECT_EQ(nx.alignment.n_taxa(), 8u);
  EXPECT_EQ(nx.alignment.n_columns(), 800u);
  ASSERT_EQ(nx.trees.size(), 1u);
  const Tree t = Tree::from_newick(nx.trees[0].second, nx.alignment.names());
  EXPECT_EQ(t.n_taxa(), 8u);
}

}  // namespace
}  // namespace plf::phylo
