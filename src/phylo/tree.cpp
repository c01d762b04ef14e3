#include "phylo/tree.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <iomanip>

#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::phylo {

namespace {
constexpr double kDefaultBranchLength = 0.1;

/// Parse-tree node for Newick input.
struct PNode {
  std::string name;
  double length = kDefaultBranchLength;
  bool has_length = false;
  std::vector<int> children;
};

class NewickParser {
 public:
  explicit NewickParser(const std::string& text) : text_(text) {}

  /// Returns index of the top node in `nodes`.
  int parse(std::vector<PNode>& nodes) {
    skip_ws();
    const int top = parse_subtree(nodes);
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != ';') {
      throw ParseError("Newick: expected ';' at position " + std::to_string(pos_));
    }
    return top;
  }

 private:
  int parse_subtree(std::vector<PNode>& nodes) {
    skip_ws();
    const int id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    if (peek() == '(') {
      ++pos_;
      for (;;) {
        const int child = parse_subtree(nodes);
        nodes[id].children.push_back(child);
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        if (peek() == ')') {
          ++pos_;
          break;
        }
        throw ParseError("Newick: expected ',' or ')' at position " +
                         std::to_string(pos_));
      }
      nodes[id].name = parse_label();  // optional internal label, ignored later
    } else {
      nodes[id].name = parse_label();
      if (nodes[id].name.empty()) {
        throw ParseError("Newick: expected leaf name at position " +
                         std::to_string(pos_));
      }
    }
    skip_ws();
    if (peek() == ':') {
      ++pos_;
      nodes[id].length = parse_number();
      nodes[id].has_length = true;
    }
    return id;
  }

  std::string parse_label() {
    skip_ws();
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ':' || c == ',' || c == ')' || c == '(' || c == ';' ||
          std::isspace(static_cast<unsigned char>(c))) {
        break;
      }
      out += c;
      ++pos_;
    }
    return out;
  }

  double parse_number() {
    skip_ws();
    std::size_t consumed = 0;
    double v = 0.0;
    try {
      v = std::stod(text_.substr(pos_), &consumed);
    } catch (const std::exception&) {
      throw ParseError("Newick: bad branch length at position " +
                       std::to_string(pos_));
    }
    pos_ += consumed;
    return v;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

/// Undirected view of the tree: vertex adjacency with edge lengths.
struct Tree::Adjacency {
  struct Edge {
    int to;
    double len;
  };
  std::vector<std::vector<Edge>> adj;
  std::vector<int> leaf_taxon;  // per vertex: taxon index or kNoNode

  int add_vertex(int taxon = kNoNode) {
    adj.emplace_back();
    leaf_taxon.push_back(taxon);
    return static_cast<int>(adj.size()) - 1;
  }

  void add_edge(int a, int b, double len) {
    adj[static_cast<std::size_t>(a)].push_back({b, len});
    adj[static_cast<std::size_t>(b)].push_back({a, len});
  }

  void remove_edge(int a, int b) {
    auto drop = [this](int from, int to) {
      auto& v = adj[static_cast<std::size_t>(from)];
      v.erase(std::remove_if(v.begin(), v.end(),
                             [to](const Edge& e) { return e.to == to; }),
              v.end());
    };
    drop(a, b);
    drop(b, a);
  }

  std::size_t degree(int v) const { return adj[static_cast<std::size_t>(v)].size(); }

  /// Collapse every nameless degree-2 vertex (this removes the artificial
  /// root of a rooted Newick string, merging the two incident branches).
  void collapse_degree_two() {
    for (int v = 0; v < static_cast<int>(adj.size()); ++v) {
      if (leaf_taxon[static_cast<std::size_t>(v)] != kNoNode) continue;
      while (degree(v) == 2) {
        const Edge e0 = adj[static_cast<std::size_t>(v)][0];
        const Edge e1 = adj[static_cast<std::size_t>(v)][1];
        remove_edge(v, e0.to);
        remove_edge(v, e1.to);
        add_edge(e0.to, e1.to, e0.len + e1.len);
      }
    }
  }
};

Tree Tree::from_newick(const std::string& text, int outgroup_taxon) {
  return from_newick(text, std::vector<std::string>{}, outgroup_taxon);
}

Tree Tree::from_newick(const std::string& text,
                       const std::vector<std::string>& taxon_names,
                       int outgroup_taxon) {
  std::vector<PNode> pnodes;
  NewickParser parser(text);
  const int top = parser.parse(pnodes);

  // Assign taxon indices.
  std::vector<std::string> names = taxon_names;
  auto taxon_of = [&names](const std::string& name) -> int {
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end()) return static_cast<int>(it - names.begin());
    return kNoNode;
  };

  Adjacency adj;
  std::vector<int> vertex_of(pnodes.size(), kNoNode);
  for (std::size_t i = 0; i < pnodes.size(); ++i) {
    const bool leaf = pnodes[i].children.empty();
    int taxon = kNoNode;
    if (leaf) {
      taxon = taxon_of(pnodes[i].name);
      if (taxon == kNoNode) {
        if (!taxon_names.empty()) {
          throw ParseError("Newick leaf '" + pnodes[i].name +
                           "' not found in taxon name list");
        }
        names.push_back(pnodes[i].name);
        taxon = static_cast<int>(names.size()) - 1;
      }
    }
    vertex_of[i] = adj.add_vertex(taxon);
  }
  for (std::size_t i = 0; i < pnodes.size(); ++i) {
    for (int c : pnodes[i].children) {
      adj.add_edge(vertex_of[i], vertex_of[static_cast<std::size_t>(c)],
                   pnodes[static_cast<std::size_t>(c)].length);
    }
  }
  (void)top;

  adj.collapse_degree_two();
  return from_adjacency(adj, std::move(names), outgroup_taxon);
}

Tree Tree::from_adjacency(const Adjacency& adj,
                          std::vector<std::string> taxon_names,
                          int outgroup_taxon) {
  const std::size_t n_taxa = taxon_names.size();
  PLF_CHECK(n_taxa >= 3, "tree needs at least 3 taxa");
  PLF_CHECK(outgroup_taxon >= 0 && outgroup_taxon < static_cast<int>(n_taxa),
            "outgroup taxon out of range");

  // Locate vertices and check degrees.
  std::vector<int> leaf_vertex(n_taxa, kNoNode);
  std::size_t n_internal_vertices = 0;
  for (int v = 0; v < static_cast<int>(adj.adj.size()); ++v) {
    const int taxon = adj.leaf_taxon[static_cast<std::size_t>(v)];
    if (taxon != kNoNode) {
      PLF_CHECK(adj.degree(v) == 1, "leaf vertex must have degree 1");
      PLF_CHECK(leaf_vertex[static_cast<std::size_t>(taxon)] == kNoNode,
                "duplicate taxon in tree: " + taxon_names[static_cast<std::size_t>(taxon)]);
      leaf_vertex[static_cast<std::size_t>(taxon)] = v;
    } else if (adj.degree(v) > 0) {
      PLF_CHECK(adj.degree(v) == 3,
                "internal vertex of unrooted binary tree must have degree 3 (got " +
                    std::to_string(adj.degree(v)) + ")");
      ++n_internal_vertices;
    }
  }
  for (std::size_t t = 0; t < n_taxa; ++t) {
    PLF_CHECK(leaf_vertex[t] != kNoNode,
              "taxon missing from tree: " + taxon_names[t]);
  }
  PLF_CHECK(n_internal_vertices == n_taxa - 2,
            "unexpected internal vertex count");

  Tree tree;
  tree.taxon_names_ = std::move(taxon_names);
  tree.nodes_.resize(2 * n_taxa - 2);
  tree.leaf_of_.resize(n_taxa);
  // Leaves occupy node ids [0, n_taxa) with id == taxon index.
  for (std::size_t t = 0; t < n_taxa; ++t) {
    tree.leaf_of_[t] = static_cast<int>(t);
    tree.nodes_[t].taxon = static_cast<int>(t);
  }

  const int out_vertex = leaf_vertex[static_cast<std::size_t>(outgroup_taxon)];
  const auto& out_edges = adj.adj[static_cast<std::size_t>(out_vertex)];
  const int root_vertex = out_edges[0].to;
  const double out_len = out_edges[0].len;

  tree.outgroup_ = static_cast<int>(outgroup_taxon);

  int next_internal = static_cast<int>(n_taxa);
  // Iterative DFS assigning node ids; each frame: (vertex, parent_vertex,
  // node_id already allocated for this vertex).
  struct Frame {
    int vertex;
    int parent_vertex;
    int node_id;
  };
  auto node_id_for = [&](int vertex) -> int {
    const int taxon = adj.leaf_taxon[static_cast<std::size_t>(vertex)];
    if (taxon != kNoNode) return tree.leaf_of_[static_cast<std::size_t>(taxon)];
    return next_internal++;
  };

  const int root_id = node_id_for(root_vertex);
  tree.root_ = root_id;
  tree.nodes_[static_cast<std::size_t>(root_id)].parent = kNoNode;

  // Outgroup leaf hangs off the root.
  auto& out_node = tree.nodes_[static_cast<std::size_t>(tree.outgroup_)];
  out_node.parent = root_id;
  out_node.length = out_len;

  std::vector<Frame> stack{{root_vertex, out_vertex, root_id}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    TreeNode& n = tree.nodes_[static_cast<std::size_t>(f.node_id)];
    if (adj.leaf_taxon[static_cast<std::size_t>(f.vertex)] != kNoNode) continue;

    int child_slot = 0;
    for (const auto& e : adj.adj[static_cast<std::size_t>(f.vertex)]) {
      if (e.to == f.parent_vertex) continue;
      const int cid = node_id_for(e.to);
      TreeNode& c = tree.nodes_[static_cast<std::size_t>(cid)];
      c.parent = f.node_id;
      c.length = e.len;
      if (child_slot == 0) {
        n.left = cid;
      } else {
        n.right = cid;
      }
      ++child_slot;
      stack.push_back({e.to, f.vertex, cid});
    }
    PLF_CHECK(child_slot == 2, "internal node must have exactly two children");
  }

  tree.validate();
  return tree;
}

Tree::Adjacency Tree::to_adjacency() const {
  Adjacency adj;
  // Vertex ids mirror node ids.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    adj.add_vertex(nodes_[i].taxon);
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& n = nodes_[i];
    if (n.parent != kNoNode) {
      adj.add_edge(static_cast<int>(i), n.parent, n.length);
    }
  }
  return adj;
}

Tree Tree::rerooted(int outgroup_taxon) const {
  return from_adjacency(to_adjacency(), taxon_names_, outgroup_taxon);
}

void Tree::write_subtree(int id, std::string& out, int precision) const {
  const TreeNode& n = node(id);
  if (n.is_leaf()) {
    out += taxon_names_[static_cast<std::size_t>(n.taxon)];
  } else {
    out += '(';
    write_subtree(n.left, out, precision);
    out += ',';
    write_subtree(n.right, out, precision);
    out += ')';
  }
  std::ostringstream os;
  os << ':' << std::setprecision(precision) << n.length;
  out += os.str();
}

std::string Tree::to_newick(int precision) const {
  // Unrooted convention: trifurcation at the root internal node with the
  // outgroup listed first. The outgroup's stored length is the full length
  // of the root<->outgroup branch.
  std::string out = "(";
  out += taxon_names_[static_cast<std::size_t>(node(outgroup_).taxon)];
  {
    std::ostringstream os;
    os << ':' << std::setprecision(precision) << node(outgroup_).length;
    out += os.str();
  }
  out += ',';
  write_subtree(node(root_).left, out, precision);
  out += ',';
  write_subtree(node(root_).right, out, precision);
  out += ");";
  return out;
}

std::vector<int> Tree::postorder_internals() const {
  std::vector<int> order;
  order.reserve(n_internal());
  // Two-phase iterative postorder over internal nodes only.
  std::vector<int> stack{root_};
  std::vector<int> reversed;
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    reversed.push_back(id);
    const TreeNode& n = node(id);
    if (!node(n.left).is_leaf()) stack.push_back(n.left);
    if (!node(n.right).is_leaf()) stack.push_back(n.right);
  }
  order.assign(reversed.rbegin(), reversed.rend());
  return order;
}

std::vector<int> Tree::branch_nodes() const {
  std::vector<int> out;
  out.reserve(n_nodes() - 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].parent != kNoNode) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> Tree::internal_edge_nodes() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].is_leaf() && nodes_[i].parent != kNoNode) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

void Tree::set_branch_length(int id, double len) {
  PLF_CHECK(len >= 0.0, "branch length must be nonnegative");
  PLF_CHECK(nodes_[static_cast<std::size_t>(id)].parent != kNoNode,
            "the root carries no branch");
  nodes_[static_cast<std::size_t>(id)].length = len;
}

double Tree::total_length() const {
  double sum = 0.0;
  for (const auto& n : nodes_) {
    if (n.parent != kNoNode) sum += n.length;
  }
  return sum;
}

void Tree::nni(int v, bool swap_left) {
  TreeNode& nv = nodes_[static_cast<std::size_t>(v)];
  PLF_CHECK(!nv.is_leaf() && nv.parent != kNoNode,
            "NNI requires an internal non-root node");
  const int u = nv.parent;
  TreeNode& nu = nodes_[static_cast<std::size_t>(u)];

  const bool v_is_left = (nu.left == v);
  const int w = v_is_left ? nu.right : nu.left;  // sibling of v
  const int c = swap_left ? nv.left : nv.right;  // child of v to swap out

  // Reattach: c becomes u's child in w's slot; w becomes v's child in c's slot.
  if (v_is_left) {
    nu.right = c;
  } else {
    nu.left = c;
  }
  if (swap_left) {
    nv.left = w;
  } else {
    nv.right = w;
  }
  nodes_[static_cast<std::size_t>(c)].parent = u;
  nodes_[static_cast<std::size_t>(w)].parent = v;
}

bool Tree::in_subtree(int ancestor, int descendant) const {
  for (int id = descendant; id != kNoNode; id = node(id).parent) {
    if (id == ancestor) return true;
    if (id == root_) break;
  }
  return false;
}

std::vector<int> Tree::spr_valid_targets(int s) const {
  std::vector<int> out;
  if (s == root_ || s == outgroup_) return out;
  const int u = node(s).parent;
  if (u == root_ || u == kNoNode) return out;  // pruning would break the root
  const TreeNode& nu = node(u);
  const int w = (nu.left == s) ? nu.right : nu.left;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const int t = static_cast<int>(id);
    if (nodes_[id].parent == kNoNode) continue;  // the root has no branch
    if (t == outgroup_) continue;  // the root<->outgroup branch is special
    if (t == u || t == w) continue;  // would reattach in place
    if (in_subtree(s, t)) continue;  // cannot graft inside the moved subtree
    out.push_back(t);
  }
  return out;
}

Tree::SprUndo Tree::spr(int s, int target, double split_x) {
  const int u = node(s).parent;
  PLF_CHECK(s != root_ && s != outgroup_ && u != kNoNode && u != root_,
            "spr: subtree cannot be pruned here");
  TreeNode& nu = nodes_[static_cast<std::size_t>(u)];
  const int w = (nu.left == s) ? nu.right : nu.left;
  PLF_CHECK(target != u && target != w && target != outgroup_ &&
                node(target).parent != kNoNode && !in_subtree(s, target),
            "spr: invalid regraft target");
  TreeNode& nw = nodes_[static_cast<std::size_t>(w)];
  TreeNode& nt = nodes_[static_cast<std::size_t>(target)];
  PLF_CHECK(split_x > 0.0 && split_x < nt.length,
            "spr: split must fall inside the target branch");

  SprUndo undo;
  undo.s = s;
  undo.u = u;
  undo.w = w;
  undo.target = target;
  undo.u_length = nu.length;
  undo.w_length = nw.length;
  undo.t_length = nt.length;

  // Detach u (with s below it): w takes u's place under p.
  const int p = nu.parent;
  TreeNode& np = nodes_[static_cast<std::size_t>(p)];
  if (np.left == u) {
    np.left = w;
  } else {
    np.right = w;
  }
  nw.parent = p;
  nw.length += nu.length;

  // Insert u into the branch above target: q -- u(split_x) -- target(rest).
  const int q = nt.parent;
  TreeNode& nq = nodes_[static_cast<std::size_t>(q)];
  if (nq.left == target) {
    nq.left = u;
  } else {
    nq.right = u;
  }
  nu.parent = q;
  nu.length = split_x;
  if (nu.left == s) {
    nu.right = target;
  } else {
    nu.left = target;
  }
  nt.parent = u;
  nt.length -= split_x;
  return undo;
}

void Tree::undo_spr(const SprUndo& undo) {
  TreeNode& nu = nodes_[static_cast<std::size_t>(undo.u)];
  TreeNode& nw = nodes_[static_cast<std::size_t>(undo.w)];
  TreeNode& nt = nodes_[static_cast<std::size_t>(undo.target)];

  // Detach u from above target, restoring target under its old parent q.
  const int q = nu.parent;
  TreeNode& nq = nodes_[static_cast<std::size_t>(q)];
  if (nq.left == undo.u) {
    nq.left = undo.target;
  } else {
    nq.right = undo.target;
  }
  nt.parent = q;
  nt.length = undo.t_length;

  // Reinsert u above w, under w's current parent.
  const int p = nw.parent;
  TreeNode& np = nodes_[static_cast<std::size_t>(p)];
  if (np.left == undo.w) {
    np.left = undo.u;
  } else {
    np.right = undo.u;
  }
  nu.parent = p;
  nu.length = undo.u_length;
  if (nu.left == undo.s) {
    nu.right = undo.w;
  } else {
    nu.left = undo.w;
  }
  nw.parent = undo.u;
  nw.length = undo.w_length;
}

void Tree::validate() const {
  PLF_CHECK(n_taxa() >= 3, "tree must have at least 3 taxa");
  PLF_CHECK(nodes_.size() == 2 * n_taxa() - 2, "node count mismatch");
  PLF_CHECK(leaf_of_.size() == n_taxa(), "leaf_of size mismatch");
  // Ids may come from an untrusted stream (Tree::load): range-check every one
  // before anything below indexes with it.
  const auto valid_id = [this](int id) {
    return id >= 0 && static_cast<std::size_t>(id) < nodes_.size();
  };
  PLF_CHECK(valid_id(root_), "root id out of range");
  PLF_CHECK(valid_id(outgroup_), "outgroup id out of range");
  for (const TreeNode& n : nodes_) {
    PLF_CHECK(n.parent == kNoNode || valid_id(n.parent),
              "parent id out of range");
    PLF_CHECK(n.left == kNoNode || valid_id(n.left), "child id out of range");
    PLF_CHECK(n.right == kNoNode || valid_id(n.right),
              "child id out of range");
    PLF_CHECK(n.taxon == kNoNode ||
                  (n.taxon >= 0 &&
                   static_cast<std::size_t>(n.taxon) < n_taxa()),
              "taxon id out of range");
  }
  PLF_CHECK(!node(root_).is_leaf(), "bad root");
  PLF_CHECK(node(root_).parent == kNoNode, "root must have no parent");
  PLF_CHECK(node(outgroup_).is_leaf(), "bad outgroup");
  PLF_CHECK(node(outgroup_).parent == root_, "outgroup must hang off the root");

  std::size_t leaves = 0;
  std::size_t internals = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& n = nodes_[i];
    const int id = static_cast<int>(i);
    if (n.is_leaf()) {
      ++leaves;
      PLF_CHECK(n.left == kNoNode && n.right == kNoNode, "leaf with children");
      PLF_CHECK(leaf_of_[static_cast<std::size_t>(n.taxon)] == id,
                "leaf_of mapping broken");
    } else {
      ++internals;
      PLF_CHECK(n.left != kNoNode && n.right != kNoNode,
                "internal node missing children");
      PLF_CHECK(node(n.left).parent == id && node(n.right).parent == id,
                "parent/child pointers inconsistent");
    }
    if (n.parent != kNoNode) {
      PLF_CHECK(n.length >= 0.0, "negative branch length");
      const TreeNode& p = node(n.parent);
      const bool is_child = (p.left == id || p.right == id);
      const bool is_outgroup = (id == outgroup_ && n.parent == root_);
      PLF_CHECK(is_child || is_outgroup, "dangling parent pointer");
    }
  }
  PLF_CHECK(leaves == n_taxa(), "leaf count mismatch");
  PLF_CHECK(internals == n_taxa() - 2, "internal count mismatch");

  // Reachability: every node is visited exactly once from the root.
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<int> stack{root_};
  seen[static_cast<std::size_t>(outgroup_)] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    PLF_CHECK(!seen[static_cast<std::size_t>(id)], "cycle detected");
    seen[static_cast<std::size_t>(id)] = true;
    ++visited;
    const TreeNode& n = node(id);
    if (!n.is_leaf()) {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  PLF_CHECK(visited == nodes_.size(), "tree not fully connected");
}

void Tree::save(util::BinaryWriter& w) const {
  w.section("TREE");
  w.u64(nodes_.size());
  for (const TreeNode& n : nodes_) {
    w.i64(n.parent);
    w.i64(n.left);
    w.i64(n.right);
    w.f64(n.length);
    w.i64(n.taxon);
  }
  w.u64(leaf_of_.size());
  for (int id : leaf_of_) w.i64(id);
  w.u64(taxon_names_.size());
  for (const std::string& name : taxon_names_) w.str(name);
  w.i64(root_);
  w.i64(outgroup_);
}

Tree Tree::load(util::BinaryReader& r) {
  r.section("TREE");
  Tree tree;
  // Counts are untrusted: each container grows one element per record read,
  // so a corrupt count fails as a truncated stream, not an allocation.
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    TreeNode& node = tree.nodes_.emplace_back();
    node.parent = static_cast<int>(r.i64());
    node.left = static_cast<int>(r.i64());
    node.right = static_cast<int>(r.i64());
    node.length = r.f64();
    node.taxon = static_cast<int>(r.i64());
  }
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    tree.leaf_of_.push_back(static_cast<int>(r.i64()));
  }
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    tree.taxon_names_.push_back(r.str());
  }
  tree.root_ = static_cast<int>(r.i64());
  tree.outgroup_ = static_cast<int>(r.i64());
  tree.validate();
  return tree;
}

bool Tree::same_topology(const Tree& other) const {
  if (n_taxa() != other.n_taxa()) return false;

  // Taxon indices are assigned per tree (e.g. by first occurrence in a
  // Newick string), so splits are compared in a shared index space keyed by
  // taxon NAME: this tree uses identity, `other` maps through its names.
  std::vector<int> other_map(other.n_taxa());
  for (std::size_t t = 0; t < other.n_taxa(); ++t) {
    const auto it = std::find(taxon_names_.begin(), taxon_names_.end(),
                              other.taxon_names_[t]);
    if (it == taxon_names_.end()) return false;  // different taxon sets
    other_map[t] = static_cast<int>(it - taxon_names_.begin());
  }
  std::vector<int> identity(n_taxa());
  for (std::size_t t = 0; t < n_taxa(); ++t) identity[t] = static_cast<int>(t);

  // Collect the nontrivial splits of each tree as canonical taxon bitsets.
  auto splits = [](const Tree& t, const std::vector<int>& taxon_map) {
    const std::size_t words = (t.n_taxa() + 63) / 64;
    std::vector<std::vector<std::uint64_t>> below(
        t.n_nodes(), std::vector<std::uint64_t>(words, 0));
    for (std::size_t i = 0; i < t.n_nodes(); ++i) {
      const TreeNode& n = t.nodes_[i];
      if (n.is_leaf()) {
        const std::size_t mapped =
            static_cast<std::size_t>(taxon_map[static_cast<std::size_t>(n.taxon)]);
        below[i][mapped / 64] |= std::uint64_t{1} << (mapped % 64);
      }
    }
    std::set<std::vector<std::uint64_t>> out;
    for (int id : t.postorder_internals()) {
      const TreeNode& n = t.node(id);
      auto& mine = below[static_cast<std::size_t>(id)];
      for (std::size_t w = 0; w < mine.size(); ++w) {
        mine[w] = below[static_cast<std::size_t>(n.left)][w] |
                  below[static_cast<std::size_t>(n.right)][w];
      }
      if (id == t.root()) continue;  // the root's split is the trivial full set
      // Canonical form: complement if taxon 0's bit is set, so each split has
      // one unique representation.
      std::vector<std::uint64_t> key = mine;
      if (key[0] & 1) {
        for (std::size_t w = 0; w < key.size(); ++w) key[w] = ~key[w];
        // Clear padding bits beyond n_taxa.
        const std::size_t rem = t.n_taxa() % 64;
        if (rem != 0) key.back() &= (std::uint64_t{1} << rem) - 1;
      }
      out.insert(std::move(key));
    }
    return out;
  };

  return splits(*this, identity) == splits(other, other_map);
}

}  // namespace plf::phylo
