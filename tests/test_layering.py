"""The shape of ``src/repro``, read with :mod:`ast`: who may import whom,
and that each fact of the update path is stated in one place.

A lower layer that needs something from a higher one does not get a
local copy "because importing back would cycle" — it gets this test
failing, and the thing moves down to where both can reach it.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import pathlib
from collections import deque

import repro
from repro.maintenance import OPERATIONS
from repro.store import StoreConfig

SRC = pathlib.Path(repro.__file__).parent
TREES = {
    path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
    for path in sorted(SRC.rglob("*.py"))
}

#: a package imports only from the rows above its own
LAYERS = (
    {"exceptions", "obs"},
    {"core"},
    {"graph"},
    {"index", "workload"},
    {"maintenance", "query", "metrics"},
    {"resilience"},
    {"service"},
    {"store", "adaptive", "corpus"},
    {"replication"},
    {"experiments"},
    {"__init__"},
)
RANK = {package: rank for rank, row in enumerate(LAYERS) for package in row}

#: the upward imports that exist today, ``(importing file, imported package)``.
#: This set may only shrink.
UPWARD = {
    ("service/service.py", "adaptive"),  # the two parts a service may hold,
    ("service/service.py", "store"),  # imported where they are attached
    ("obs/export.py", "query"),  # function-local
    ("workload/queries.py", "query"),  # function-local
}


def package_of(module: str) -> str:
    return module.split("/")[0].removesuffix(".py")


def imports(tree: ast.AST):
    """``(imported repro package, imported names)`` of every import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro."):
            yield node.module.split(".")[1], [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro."):
                    yield alias.name.split(".")[1], []


def test_every_package_has_a_layer():
    assert {package_of(module) for module in TREES} == set(RANK)


def test_imports_point_down_the_layers():
    upward = {
        (module, imported)
        for module, tree in TREES.items()
        for imported, _ in imports(tree)
        if imported != package_of(module) and RANK[imported] >= RANK[package_of(module)]
    }
    assert upward == UPWARD


def test_no_module_imports_the_tests():
    # a driver only the tests use lives in ``tests/``, and nothing here reaches it
    reaching = [
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tests")
        or (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "tests" for alias in node.names)
        )
    ]
    assert reaching == []


def test_no_private_name_crosses_a_package():
    crossing = [
        (module, imported, name)
        for module, tree in TREES.items()
        for imported, names in imports(tree)
        for name in names
        if name.startswith("_") and imported != package_of(module)
    ]
    assert crossing == []


# ----------------------------------------------------------------------
# Each fact of the update path, stated once
# ----------------------------------------------------------------------

OPERATION_NAMES = {
    "insert_edge", "delete_edge", "insert_node", "delete_node",
    "add_subgraph", "delete_subgraph", "set_value", "reconstruct",
}


def literals_by_function(tree: ast.AST, enclosing: str = ""):
    """``(string literal, name of the innermost enclosing def)`` pairs."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, enclosing
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else enclosing
        yield from literals_by_function(node, inner)


def test_the_operation_names_are_spelled_in_two_places():
    assert set(OPERATIONS) == OPERATION_NAMES
    elsewhere = [
        (module, literal, function)
        for module, tree in TREES.items()
        if module not in ("maintenance/operations.py", "service/queue.py")
        for literal, function in literals_by_function(tree)
        if literal in OPERATION_NAMES
    ]
    assert elsewhere == []


def calls_of(attribute: str) -> set[str]:
    return {
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == attribute
    }


def test_one_checksum_one_record_decoder_one_envelope():
    # obs/metrics.py seeds a histogram's sampler with it: not a checksum
    assert calls_of("crc32") == {"core/codec.py", "obs/metrics.py"}
    assert calls_of("decode_record") == {"store/wal.py", "replication/feed.py"}
    assert calls_of("unseal") == {"store/checkpoint.py", "replication/feed.py"}
    assert calls_of("seal") == {"replication/feed.py", "replication/link.py"}
    # the checkpoint formats its canonical text itself; the envelope around
    # it is still the codec's, and `seal` is that function after `canonical`
    assert calls_of("seal_canonical") == {"core/codec.py", "store/checkpoint.py"}


def test_the_checkpoint_text_has_one_writer():
    imported = {
        name
        for _, names in imports(TREES["store/checkpoint.py"])
        for name in names
    }
    assert {"graph_to_json", "structure_to_json"} <= imported
    assert not imported & {"seal", "graph_to_dict", "structure_to_dict"}
    assert [field.name for field in dataclasses.fields(StoreConfig)] == [
        "fsync", "sync_every", "segment_max_bytes",
        "checkpoint_every_records", "keep_checkpoints",
    ]


def test_the_whole_text_is_every_page_rendered_and_joined():
    """``graph_to_json`` / ``structure_to_json`` are the cold case of the
    checkpoint's paged text: they list the pages, call the page renderers
    on each and join, with no loop of their own over the graph or the
    structure; the checkpointer renders through the same functions."""
    emitters = (
        ("graph/serialize.py", "graph_to_json", "graph_pages",
         {"graph_page_nodes", "graph_page_edges", "graph_json"}),
        ("index/serialize.py", "structure_to_json", "structure_pages",
         {"structure_page", "structure_json"}),
    )
    renderers = set()
    for module, name, lister, called in emitters:
        (function,) = [
            node
            for node in ast.walk(TREES[module])
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        calls = {
            getattr(node.func, "id", None)
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
        }
        assert called | {lister} <= calls
        assert not [
            node for node in ast.walk(function) if isinstance(node, (ast.For, ast.While))
        ]
        (listing,) = [
            node.targets[0].id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and getattr(getattr(node.value, "func", None), "id", None) == lister
        ]
        walked = [
            ast.unparse(node.iter)
            for node in ast.walk(function)
            if isinstance(node, ast.comprehension)
        ]
        assert walked and set(walked) == {listing}
        renderers |= called
    checkpoint_calls = {
        getattr(node.func, "id", None)
        for node in ast.walk(TREES["store/checkpoint.py"])
        if isinstance(node, ast.Call)
    }
    assert renderers | {"graph_pages", "structure_pages"} <= checkpoint_calls


def test_one_function_walks_the_wal_segments():
    walkers = [
        function.name
        for function in ast.walk(TREES["store/wal.py"])
        if isinstance(function, ast.FunctionDef)
        for loop in ast.walk(function)
        if isinstance(loop, ast.For)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_scan_segment"
    ]
    assert walkers == ["read_records_since"]


# ----------------------------------------------------------------------
# One transaction surface for both index families
# ----------------------------------------------------------------------

TOUCHED_FIELDS = {"dnodes", "inodes", "moved", "tokens", "full"}
MUTATORS = {"add", "update", "discard", "remove", "pop", "clear", "difference_update"}


def enclosing_functions(tree: ast.AST, enclosing: str = ""):
    """``(node, name of the innermost enclosing def)`` for every node."""
    for node in ast.iter_child_nodes(tree):
        yield node, enclosing
        inner = node.name if isinstance(node, ast.FunctionDef) else enclosing
        yield from enclosing_functions(node, inner)


def is_touched_field(node: ast.AST) -> bool:
    """``<... touched>.<field of TouchedSet>``, whatever holds the set."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in TOUCHED_FIELDS
        and ast.unparse(node.value).endswith("touched")
    )


def test_the_journal_is_the_only_writer_of_the_touched_set():
    from repro.resilience.journal import TouchedSet

    assert set(TouchedSet.__slots__) == TOUCHED_FIELDS
    writers = set()
    for module, tree in TREES.items():
        if module == "resilience/journal.py":
            continue
        for node, function in enclosing_functions(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                written = any(map(is_touched_field, targets))
            else:
                written = (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and is_touched_field(node.func.value)
                )
            if written:
                writers.add((module, function))
    # the one exception: graph changes reach derived entries (leaf tokens)
    # only through the post-batch partition, added by the publish, once
    # per commit
    assert writers == {("service/snapshot.py", "evolve")}
    publishes = [
        (module, function)
        for module, tree in TREES.items()
        for node, function in enclosing_functions(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "IndexSnapshot.evolve"
    ]
    assert publishes == [("service/service.py", "_publish_next")]


def test_maintainers_do_not_know_the_touched_set():
    knows = [
        (module, node.lineno)
        for module, tree in TREES.items()
        if module.startswith("maintenance/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "touched"
    ]
    assert knows == []


def test_no_transaction_copies_a_family():
    copies = [
        (module, node.lineno)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "copy"
        and ast.unparse(node.func.value).endswith("family")
    ]
    assert copies == []


def test_the_replaced_names_are_gone():
    gone = (
        "apply_update_raw", "_raw_for", "_PLAIN_ARITY", "_canonical_crc",
        "_cross_edges_to_wire", "WIRE_OPS", "_record_crc",
        "_normalise_cross_edges", "_require_disjoint_oids",
        "_family_backup", "leaf_moves", "leaf_tokens", "capture_family",
        "evolve_family", "_note_move", "sample_rate",
        "resolve_touched_leaves", "wal_last_lsn", "AUDIT_STEPS", "audit_step",
        "ReconstructionPolicyProtocol", "max_retries", "simple_ak_memoize", "_unchecked",
        "CostBasedPolicy", "CostInputs", "CostConfig", "note_pressure", "expected_yield",
        "cache_capacity", "ancestors_of", "evaluate_on_subgraph",
        "LadderLevel", "DurableIndexService", "_labelled_view",
        "DataGuide", "build_dataguide", "INodeView", "JsonlReporter", "jsonl_path",
        "report_interval_seconds", "default_replication_rules", "minimum_1index_size_of",
        "minimum_ak_size_of", "ClosedLoopDriver", "SessionMix", "DriverReport",
        "ShiftingQueryPool", "CorpusChurnWorkload", "ChurnReport", "_weighted_choice",
        "STATS_WINDOW", "bfs_order", "dfs_order", "reachable_from", "topological_order",
        "count_cycle_edges", "unreachable_nodes", "graph_depth", "induced_edge_count",
        "refine_by_signature", "parse_documents", "id_attributes", "ref_attributes",
        "doc_prefix", "_build_element",
    )
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert not [name for name in gone if name in text], path


def test_no_module_sniffs_the_graph_core():
    # the slab core is the only graph in ``src/``: a ``hasattr`` /
    # ``getattr`` probe for its private storage is a second path kept
    # for a graph type that lives in the tests
    from repro.graph.datagraph import DataGraph

    private = {name for name in DataGraph.__slots__ if name.startswith("_")}
    sniffs = [
        (module, node.lineno)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("hasattr", "getattr")
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value in private
    ]
    assert sniffs == []


# ----------------------------------------------------------------------
# One structure argument above ``repro.index``
# ----------------------------------------------------------------------

KIND_LITERALS = {"one", "ak"}


def test_no_function_outside_the_index_package_takes_the_index_family_pair():
    pairs = [
        (module, function.name)
        for module, tree in TREES.items()
        if not module.startswith("index/")
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and {"index", "family"}
        <= {
            arg.arg
            for arg in function.args.posonlyargs + function.args.args + function.args.kwonlyargs
        }
    ]
    assert pairs == []


def test_the_kinds_are_spelled_where_the_structures_are_defined():
    spelled = {
        (module, function)
        for module, tree in TREES.items()
        if not module.startswith(("index/", "experiments/"))
        for literal, function in literals_by_function(tree)
        if literal in KIND_LITERALS
    }
    # the operation table (which kinds admit ``reconstruct``) and the one
    # default: the family a *fresh* service builds when nobody says
    assert spelled == {("maintenance/operations.py", ""), ("service/service.py", "ServiceConfig")}


def test_no_layer_checks_that_it_got_exactly_one_of_the_pair():
    checks = [
        (module, literal)
        for module, tree in TREES.items()
        for literal, _ in literals_by_function(tree)
        if "exactly one of" in literal and ("index" in literal or "family" in literal)
    ]
    assert checks == []


# ----------------------------------------------------------------------
# What the benchmark binds to by name, and what the audit may not grow
# ----------------------------------------------------------------------


SERVICE_CONFIG_FIELDS = [
    "family", "k", "batch_max_ops", "queue_capacity", "admission", "coalesce",
    "guard", "writer_idle_wait",
]
ADAPTIVE_CONFIG_FIELDS = ["levels", "audit", "retune_every"]


def assert_no_environment_lookup(package: str) -> None:
    for path in (SRC / package).glob("*.py"):
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path


def test_every_traced_attribute_resolves(tmp_path):
    """``bench/trace.py`` wraps these from outside, and
    ``bench/run.py::service_counters`` reads these off live services: a
    rename or a re-homing breaks the benchmark (ROADMAP rule iv), which
    no other tier-1 test drives."""
    from types import SimpleNamespace

    from bench.run import service_counters
    from bench.trace import SPAN_TABLE
    from repro.adaptive import AdaptiveConfig
    from repro.replication import FollowerIndexService, Primary, ReplicationLink
    from repro.service import IndexService
    from repro.workload.xmark import XMarkConfig, generate_xmark

    missing = []
    for span, module, owner, attribute in SPAN_TABLE:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner, None)
        if not callable(getattr(holder, attribute, None)):
            missing.append((span, module, owner, attribute))
    assert missing == []

    # every part service_counters asks for: a store, an adaptive plane, a follower
    graph = generate_xmark(
        XMarkConfig(num_items=4, num_persons=4, num_open_auctions=2,
                    num_closed_auctions=2, num_categories=2)
    ).graph
    primary = IndexService(
        graph, store_dir=str(tmp_path / "store"), store_config=StoreConfig(fsync="off"),
        adaptive=AdaptiveConfig(),
    )
    link = ReplicationLink(Primary(service=primary), sleep=lambda _s: None)
    follower = FollowerIndexService.bootstrap(link, adaptive=AdaptiveConfig())
    services = [primary, follower]
    assert all(hasattr(service, "cache") for service in services) and hasattr(primary, "wal")
    assert hasattr(follower, "records_applied")
    counters = service_counters(SimpleNamespace(services=lambda: services))
    assert all(isinstance(value, int) for value in counters.values()), counters
    follower.close()
    primary.close()


def test_figure_3_is_written_once():
    """One split phase, one merge phase; the propagate baseline is the
    first alone — by inheritance, not by a switch on either maintainer."""
    calls = {
        name: [
            (module, function)
            for module, tree in TREES.items()
            if package_of(module) == "maintenance"
            for node, function in enclosing_functions(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
        for name in ("stabilize", "_find_merge_partner")
    }
    assert calls == {
        "stabilize": [("maintenance/propagate.py", "_split_phase")],
        "_find_merge_partner": [("maintenance/split_merge.py", "_merge_phase")],
    }
    from repro.adaptive.service import AdaptiveConfig
    from repro.maintenance import PropagateMaintainer, SplitMergeMaintainer
    from repro.service import ServiceConfig

    assert issubclass(SplitMergeMaintainer, PropagateMaintainer)
    assert "_split_phase" not in vars(SplitMergeMaintainer)
    for module in ("maintenance/propagate.py", "maintenance/split_merge.py"):
        tree = TREES[module]
        parameters = {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
        keywords = {node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword)}
        assert not [name for name in parameters if "merge" in name], module
        assert "merge" not in keywords, module
    assert_no_environment_lookup("maintenance")
    assert [field.name for field in dataclasses.fields(ServiceConfig)] == SERVICE_CONFIG_FIELDS
    assert [field.name for field in dataclasses.fields(AdaptiveConfig)] == ADAPTIVE_CONFIG_FIELDS


def element_tree_calls(tree: ast.AST) -> set[str]:
    """The names a module calls on anything it imported from ``xml``."""
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "xml"
    }
    named = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xml"
        for alias in node.names
    }
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and ast.unparse(node.func.value) in bound | set(named):
            called.add(node.func.attr)
        elif isinstance(node.func, ast.Name) and node.func.id in named:
            called.add(named[node.func.id])
    return called


def test_section_3_is_read_once_and_written_once():
    """Figure 1's mapping has one reader and one writer: the corpus reader
    alone calls ElementTree's parser, and the graph package's element
    writer alone makes elements — ``parse_xml``, the document splitter and
    ``to_xml`` go through them, so they cannot drift apart."""
    calls = {module: element_tree_calls(tree) for module, tree in TREES.items()}
    assert {module for module, names in calls.items() if names} == {
        "corpus/documents.py", "graph/xml_io.py",
        "corpus/churn.py",  # edits a document's XML text; never maps it to a graph
    }
    del calls["corpus/churn.py"]
    readers = {"fromstring", "fromstringlist", "XML", "XMLID", "parse", "iterparse",
               "XMLParser", "XMLPullParser"}
    assert [module for module, names in calls.items() if names & readers] == [
        "corpus/documents.py"
    ]
    assert [module for module, names in calls.items() if names & {"Element", "SubElement"}] == [
        "graph/xml_io.py"
    ]


#: the catalog's reference ledger, and the names of the maps it replaced
LEDGER = {"outbound", "inbound", "outbound_state", "inbound_resolved", "dangling"}


def test_each_reference_step_is_written_once():
    """A cross-document reference lives in one ledger, and each step of its
    life — declare, retract, flip — is one catalog helper: only those
    helpers write ``outbound`` / ``inbound`` (directly or through a name
    bound to either), and no other module names the ledger."""
    strangers = [
        (module, node.attr)
        for module, tree in TREES.items()
        if module != "corpus/builder.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in LEDGER
    ]
    assert strangers == []

    nodes = list(enclosing_functions(TREES["corpus/builder.py"]))
    aliases: set[tuple[str, str]] = set()

    def in_ledger(node: ast.AST, function: str) -> bool:
        """``self.<ledger>``, anything subscripted, looked up or called off it."""
        while isinstance(node, (ast.Subscript, ast.Attribute, ast.Call)):
            if isinstance(node, ast.Attribute) and node.attr in LEDGER:
                return ast.unparse(node.value) == "self"
            node = node.func if isinstance(node, ast.Call) else node.value
        return isinstance(node, ast.Name) and (function, node.id) in aliases

    for node, function in nodes:
        if isinstance(node, ast.Assign) and in_ledger(node.value, function):
            aliases.update((function, t.id) for t in node.targets if isinstance(t, ast.Name))
    writers = set()
    for node, function in nodes:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            written = any(
                isinstance(target, (ast.Subscript, ast.Attribute)) and in_ledger(target, function)
                for target in targets
            )
        else:
            written = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS | {"setdefault"}
                and in_ledger(node.func.value, function)
            )
        if written:
            writers.add(function)
    assert writers == {"__init__", "_declare", "_retract", "_flip"}


def test_one_reconstruction_trigger():
    """The paper's 5 % policy is the only trigger, and nothing the SLO
    plane says reaches it: no cost module, no alert hook."""
    assert "adaptive/cost_model.py" not in TREES
    triggers = [
        (module, node.name)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "should_reconstruct"
            for item in node.body
        )
    ]
    assert triggers == [("maintenance/reconstruction.py", "ReconstructionPolicy")]
    from repro.adaptive import AdaptiveController
    from repro.adaptive.service import AdaptiveConfig

    assert AdaptiveController.__dataclass_fields__["policy"].type == "ReconstructionPolicy"
    assert [field.name for field in dataclasses.fields(AdaptiveConfig)] == ADAPTIVE_CONFIG_FIELDS
    hooks = [
        module
        for module in TREES
        if (module.startswith("adaptive/") or module == "obs/slo.py")
        and "on_alert" in (SRC / module).read_text()
    ]
    assert hooks == []


def test_the_audit_slice_runs_inside_the_check_and_adds_no_setting():
    # ``resilience.check_s`` / ``check_share`` time InvariantGuard.check:
    # the slice is part of the post-check only while it is called from there
    callers = [
        (module, function)
        for module, tree in TREES.items()
        for node, function in enclosing_functions(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_audit_slice"
    ]
    assert callers == [("resilience/invariants.py", "check")]
    # its size is one module constant: no config field, no environment variable
    from repro.resilience.guard import GuardConfig
    from repro.service import ServiceConfig

    assert [field.name for field in dataclasses.fields(GuardConfig)] == ["policy", "check_level"]
    assert [field.name for field in dataclasses.fields(ServiceConfig)] == SERVICE_CONFIG_FIELDS
    # ... read in one module, and the package looks up no environment variable
    readers = {
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if "AUDIT_SLICE_VISITS" in (getattr(node, "id", None), getattr(node, "attr", None))
    }
    assert readers == {"resilience/invariants.py"}
    assert_no_environment_lookup("resilience")


def called_names(nodes) -> set[str]:
    return {
        getattr(call.func, "attr", getattr(call.func, "id", None))
        for node in nodes
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def test_an_audit_slice_is_one_pass_over_its_leaf_extents():
    # the guard hands either structure's slice to its kernel: no frozen
    # extent, no visit count and no depth oracle on the guard's side
    ((_, audit_slice),) = functions_named("_audit_slice")
    kernels = {node.id for node in ast.walk(audit_slice) if isinstance(node, ast.Name)}
    assert {"audit_extents", "audit_classes"} <= kernels
    assert not {"_visits", "extent", "depth_violations"} & called_names([audit_slice])
    # ... and each reads the tables themselves, not through the oracles' lookups
    for name in ("audit_extents", "audit_classes"):
        ((home, kernel),) = functions_named(name)
        assert home == "index/stability.py"
        assert not {
            "_visits", "extent", "depth_violations", "dnode_iparents", "iter_pred", "iter_succ",
            "in_degree", "out_degree", "inode_of", "covers", "label", "contains", "segment",
            "to_list", "class_at", "extent_at",
        } & called_names([kernel]), name
        # ... and no oracle's consistency check; `_drive` states the root's facts
        assert "check_invariants" not in called_names([kernel]), name
        assert "_drive" in called_names([kernel]), name
    ((_, drive),) = functions_named("_drive")
    assert called_names([drive]) & {"check_root", "check_invariants"} == {"check_root"}
    # a family's asks the Definition 4 oracle only once a test has failed
    def oracle_calls(tree: ast.AST) -> list[ast.Call]:
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "signature_violations"
        ]

    failed = [
        call
        for node in ast.walk(kernel)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "suspect"
        for call in oracle_calls(node)
    ]
    assert failed and failed == oracle_calls(kernel)
    # and there is no second whole-extent path: neither structure's oracle takes *whole*
    structures = (("index/base.py", "StructuralIndex"), ("index/akindex.py", "AkIndexFamily"))
    for module, cls_name in structures:
        (check,) = (
            node
            for cls in ast.walk(TREES[module])
            if isinstance(cls, ast.ClassDef) and cls.name == cls_name
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "check_invariants"
        )
        assert "whole" not in {arg.arg for arg in check.args.args + check.args.kwonlyargs}


#: the oracles of ``src/`` and the parameters each takes beyond the
#: structure: a scope survives only where a kernel's exact-pair fallback
#: or the minimality probe reads it
ORACLE_SCOPES = {
    "check_invariants": [],
    "check_totals": [],
    "unstable_pairs": [],
    "mergeable_pairs": ["inodes"],
    "signature_violations": ["dnodes"],
}


def test_every_guard_check_is_one_kernel_pass():
    """The scoped check, the audit slice and the unscoped check all go
    through ``audit_extents`` / ``audit_classes``: the guard calls no
    oracle, the structure protocol offers none, and no oracle keeps a
    scope the guard alone used."""
    guard = TREES["resilience/invariants.py"]
    assert not {
        "check_invariants", "depth_violations", "signature_violations", "unstable_pairs",
        "mergeable_pairs", "_visits",
    } & called_names([guard])
    (check,) = (
        node for module, node in functions_named("check") if module == "resilience/invariants.py"
    )
    ((_, audit_slice),) = functions_named("_audit_slice")
    for function in (check, audit_slice):
        names = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
        assert {"audit_extents", "audit_classes"} <= names, function.name
    (protocol,) = (
        node for node in ast.walk(TREES["index/structure.py"])
        if isinstance(node, ast.ClassDef) and node.name == "Structure"
    )
    assert "check_invariants" not in {
        node.name for node in protocol.body if isinstance(node, ast.FunctionDef)
    }
    assert not functions_named("depth_violations")
    scopes = {}
    for name in ORACLE_SCOPES:
        for module, node in functions_named(name):
            args = [arg.arg for arg in node.args.args + node.args.kwonlyargs][1:]
            scopes.setdefault(name, set()).add(tuple(args))
    assert scopes == {name: {tuple(args)} for name, args in ORACLE_SCOPES.items()}


#: names in ``__all__`` of every package ``__init__`` under ``src/repro``:
#: a ceiling that only falls
PUBLIC_NAMES = 264


def test_the_public_names_do_not_grow():
    names = [
        element.value
        for module, tree in TREES.items()
        if module.endswith("__init__.py")
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        for element in node.value.elts
    ]
    assert len(names) <= PUBLIC_NAMES


def test_the_service_keeps_counts_not_samples():
    # latencies and queries per version are the observer's histograms;
    # a sample series in the stats would be a second, unbounded copy
    from repro.service import service

    stats = service.ServiceStats()
    series = [
        field.name
        for field in dataclasses.fields(stats)
        if "deque" in str(field.type) or isinstance(getattr(stats, field.name), (list, deque))
    ]
    assert series == []
    assert not hasattr(service, "STATS_WINDOW")


def test_the_guard_commits_one_checked_batch():
    """One transactional entry, checked every time: no per-operation
    wrapper, no retry policy, no check cadence — and the experiments have
    no guard of their own to configure."""
    from repro.experiments.config import ExperimentScale
    from repro.resilience import POLICIES, GuardedMaintainer, InvariantGuard

    assert POLICIES == ("raise", "degrade")
    public = {
        name
        for name, value in vars(GuardedMaintainer).items()
        if callable(value) and not name.startswith("_")
    }
    assert public == {"apply_batch", "track_touched"}
    assert not hasattr(InvariantGuard, "due")
    assert not {"guard", "simple_ak_memoize"} & {
        field.name for field in dataclasses.fields(ExperimentScale)
    }
    flags = [
        literal
        for literal, _ in literals_by_function(TREES["experiments/__main__.py"])
        if literal.startswith(("--guard", "--check-every"))
    ]
    assert flags == []


# ----------------------------------------------------------------------
# One index-side kernel, a reference that shares nothing with it
# ----------------------------------------------------------------------


def functions_named(name: str) -> list[tuple[str, ast.FunctionDef]]:
    return [
        (module, node)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


def step_calls(tree: ast.AST) -> list[ast.Call]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "step" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_one_kernel_and_an_independent_reference():
    # the reference every served answer is audited against imports nothing
    # of the kernel, and steps the automaton per edge — no memoised rows
    reference = TREES["query/evaluator.py"]
    assert not [
        ast.unparse(node)
        for node in ast.walk(reference)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "index_evaluator" in ast.unparse(node)
    ]
    ((_, fixpoint),) = functions_named("_product_fixpoint")
    (edge_loop,) = (node for node in ast.walk(fixpoint) if isinstance(node, ast.For))
    assert [ast.unparse(call.func) for call in step_calls(edge_loop)] == ["nfa.step"]
    assert len(step_calls(fixpoint)) == 1
    # ... over the whole graph: no restriction to a subgraph, and no cone
    # helper left in the package for a validator to compose
    assert [arg.arg for arg in fixpoint.args.args] == ["graph", "nfa"]
    assert not functions_named("ancestors_of") and not functions_named("evaluate_on_subgraph")
    # one kernel, the only reader of the tables, which one class serves:
    # every surface hands the kernel its frozen version.  It builds a layer
    # per automaton state — no worklist, no transition rows, no step
    ((home, kernel),) = functions_named("evaluate_on_index")
    table_reads = [
        (module, ast.unparse(node))
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "evaluation_tables"
    ]
    assert table_reads == [(home, "index.frozen().evaluation_tables()")]
    assert home == "query/index_evaluator.py"
    assert [module for module, _ in functions_named("evaluation_tables")] == ["index/frozen.py"]
    # ... and the live index reaches that class down the layers, not up
    assert "service" not in {imported for imported, _ in imports(TREES["index/base.py"])}
    # ... into the seed, three tables and the version's closure memo, with
    # nothing asked of the surface's type
    (unpacked,) = (
        node for node in ast.walk(kernel)
        if isinstance(node, ast.Assign) and "evaluation_tables" in ast.unparse(node.value)
    )
    assert [ast.unparse(name) for name in unpacked.targets[0].elts] == [
        "roots", "children_of", "labelled", "extent_of", "closures",
    ]
    names = {node.id for node in ast.walk(kernel) if isinstance(node, ast.Name)}
    assert not {"deque", "rows", "getattr", "isinstance", "hasattr"} & names
    assert not [
        node for node in ast.walk(kernel)
        if isinstance(node, ast.Attribute) and node.attr in ("step", "rows")
    ]
    # a layer's label test is one intersection with the surface's label
    # table: the kernel reads no inode's label
    assert "labelled" in names
    assert not [
        node for node in ast.walk(kernel)
        if "label_of" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    stepping = [
        (module, function.name)
        for module, tree in TREES.items()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for call in step_calls(function)
        if ast.unparse(call.func) == "nfa.step"
    ]
    assert stepping == [("query/evaluator.py", "_product_fixpoint")]
    # one validator for every automaton, loop states included: it lives
    # beside the kernel, steps no automaton, and evaluate_on_ak calls it
    # once, unconditionally — nothing a caller, a config, the environment
    # or the expression's shape chooses
    ((layers_home, layers),) = functions_named("_validate_by_layers")
    assert layers_home == home and not step_calls(layers)
    ((_, on_ak),) = functions_named("evaluate_on_ak")
    assert [arg.arg for arg in on_ak.args.args + on_ak.args.kwonlyargs] == [
        "index", "k", "query", "validate", "footprint",
    ]
    layer_calls = [
        (module, node)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_validate_by_layers"
    ]
    assert [module for module, _ in layer_calls] == [home]
    (call,) = (node for _, node in layer_calls)
    assert call in {
        node for statement in on_ak.body if not isinstance(statement, ast.If)
        for node in ast.walk(statement)
    }
    assert not [
        node for node in ast.walk(on_ak)
        if isinstance(node, ast.If) and "loops" in ast.unparse(node.test)
    ]
    # neither has a switch: no environment lookup in the package, no config field
    assert_no_environment_lookup("query")
    from repro.adaptive.service import AdaptiveConfig
    from repro.query.automaton import PathNfa
    from repro.service import ServiceConfig

    assert [field.name for field in dataclasses.fields(ServiceConfig)] == SERVICE_CONFIG_FIELDS
    assert [field.name for field in dataclasses.fields(AdaptiveConfig)] == ADAPTIVE_CONFIG_FIELDS
    # and nothing cached on the automaton the LRU shares between readers
    assert [field.name for field in dataclasses.fields(PathNfa)] == [
        "expression", "advance", "loops",
    ]
