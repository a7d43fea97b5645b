"""Property-based tests for meta-data tree matching (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.match import first_divergence
from repro.core.metadata import MetadataTree, WILDCARD

label = st.sampled_from(["Engine", "type", "FS", "number", "Algorithm",
                         "name", "Input0", "Output0"])
value = st.sampled_from(["Spark", "Hadoop", "HDFS", "text", "arff", "1", "2"])
value_or_wildcard = st.one_of(value, st.just(WILDCARD))


@st.composite
def properties(draw, max_depth=3, max_keys=6, values=value):
    n = draw(st.integers(0, max_keys))
    props = {}
    for _ in range(n):
        depth = draw(st.integers(1, max_depth))
        key = ".".join(draw(label) for _ in range(depth))
        # avoid prefix conflicts (internal node vs leaf) by skipping keys
        # that are prefixes of / prefixed by existing ones
        if any(k == key or k.startswith(key + ".") or key.startswith(k + ".")
               for k in props):
            continue
        props[key] = draw(values)
    return props


@given(properties())
@settings(max_examples=80, deadline=None)
def test_roundtrip(props):
    tree = MetadataTree.from_properties(props)
    assert tree.to_properties() == props


@given(properties())
@settings(max_examples=80, deadline=None)
def test_matching_reflexive(props):
    tree = MetadataTree.from_properties(props)
    assert tree.matches(tree)
    assert tree.consistent_with(tree)


@given(properties(), properties())
@settings(max_examples=80, deadline=None)
def test_subset_always_matches_superset(a, b):
    """A tree built from a subset of another's leaves matches it."""
    merged = dict(b)
    safe_a = {
        k: v for k, v in a.items()
        if not any(k != m and (k.startswith(m + ".") or m.startswith(k + "."))
                   for m in merged)
    }
    merged.update(safe_a)
    subset = MetadataTree.from_properties(safe_a)
    superset = MetadataTree.from_properties(merged)
    assert subset.matches(superset)
    assert subset.consistent_with(superset)
    assert superset.consistent_with(subset)


@given(properties())
@settings(max_examples=60, deadline=None)
def test_wildcard_version_matches_anything_matching_shape(props):
    """Replacing every value with * keeps the match against the original."""
    tree = MetadataTree.from_properties(props)
    wild = MetadataTree.from_properties({k: WILDCARD for k in props})
    assert wild.matches(tree)
    assert wild.consistent_with(tree)
    assert tree.consistent_with(wild)


@given(properties())
@settings(max_examples=60, deadline=None)
def test_empty_tree_matches_everything(props):
    tree = MetadataTree.from_properties(props)
    empty = MetadataTree()
    assert empty.matches(tree)
    assert empty.consistent_with(tree)
    assert tree.consistent_with(empty)


@given(properties())
@settings(max_examples=60, deadline=None)
def test_single_changed_leaf_breaks_match(props):
    if not props:
        return
    tree = MetadataTree.from_properties(props)
    key = sorted(props)[0]
    mutated = dict(props)
    mutated[key] = props[key] + "_DIFFERENT"
    other = MetadataTree.from_properties(mutated)
    assert not tree.matches(other)
    assert not tree.consistent_with(other)


@given(properties())
@settings(max_examples=60, deadline=None)
def test_copy_equals_original(props):
    tree = MetadataTree.from_properties(props)
    clone = tree.copy()
    assert clone == tree
    assert clone.size() == tree.size()


@given(properties(values=value_or_wildcard),
       properties(values=value_or_wildcard))
@settings(max_examples=150, deadline=None)
def test_first_divergence_none_iff_matches(a, b):
    """The lint's near-miss explanation agrees with the planner's match on
    every pair: wildcards, missing keys and leaf-versus-subtree clashes
    (two independent trees often hold a leaf and a subtree at one label)."""
    safe_b = {
        k: v for k, v in b.items()
        if not any(k != m and (k.startswith(m + ".") or m.startswith(k + "."))
                   for m in a)
    }
    ta = MetadataTree.from_properties(a)
    tb = MetadataTree.from_properties(b)
    superset = MetadataTree.from_properties({**safe_b, **a})
    for required, provided in ((ta, tb), (tb, ta), (ta, ta), (ta, superset),
                               (superset, ta)):
        divergence = first_divergence(required, provided)
        assert (divergence is None) == required.matches(provided), divergence
