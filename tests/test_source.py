import ast
import pathlib

import digrep

SRC = pathlib.Path(digrep.__file__).parent


def modules():
    return [(p.stem, ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))]


def callers(name):
    """The dotted scopes (module.class.function) that call name."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for stem, tree in modules():
        visit(tree, (stem,))
    return found


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so none may guard an answer
    found = ["%s:%d" % (stem, node.lineno) for stem, tree in modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_reduce_eliminates():
    # _eliminate, the row step of Gauss-Jordan, is called from linalg._reduce
    # alone, so every elimination of the package is that one loop
    assert callers("_eliminate") == {"linalg._reduce"}


def test_kernels_come_out_canonical():
    # sparse_kernel reads the RREF basis of the kernel off its one
    # elimination, so no caller eliminates it again with span_basis
    assert callers("sparse_kernel") == {"linalg.block_kernel", "linalg.ext_classes"}
    assert not callers("sparse_kernel") & callers("span_basis")


def test_one_ext1_solve():
    # the cocycle, derivation and band-algebra models reach Z / B through
    # linalg.ext_classes alone, so every Ext^1 class decision is that one solve
    assert callers("quotient") == {"linalg.ext_classes"}


def test_scalars_are_made_only_on_demand():
    # a Matrix holds its integer image; the field's scalars are built by the
    # lazy entries alone, and no module outside linalg rebuilds a matrix
    # from another matrix's entries (reshape keeps the image)
    assert callers("_scalars") == {"linalg.Matrix.entries"}
    found = ["%s:%d" % (stem, node.lineno) for stem, tree in modules() if stem != "linalg"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and builds_matrix(node)
             and any(isinstance(a, ast.Attribute) and a.attr == "entries"
                     for arg in node.args for a in ast.walk(arg))]
    assert found == []


def builds_matrix(call):
    """Whether the call is Matrix(...) or Matrix.<constructor>(...)."""
    f = call.func
    return "Matrix" in (getattr(f, "id", None), getattr(f, "attr", None),
                        getattr(getattr(f, "value", None), "id", None))


def test_one_parser_per_process():
    # the lazy accessor is the one caller of build_parser, so no code path
    # builds a parser per main() call
    assert callers("build_parser") == {"cli._parser"}


def test_tables_are_checked_at_the_boundary_only():
    # the exhaustive R1-R5 report runs where tables enter from outside:
    # `digrep check` and the JSON loaders' helper; inside the package each
    # representation is checked once, on its generators (require_valid)
    assert callers("check_representation") == {"cli.cmd_check",
                                                "serialize._require_axioms"}


def test_representations_are_built_from_their_generators():
    # from_semilinear builds the tables from (L, rho); only the JSON loader
    # and the bundled demo write tables themselves
    assert callers("Representation") == {"reps.from_semilinear", "serialize.rep_from_json",
                                         "demo.demo_representation"}


def test_exhaustive_checkers_run_at_the_boundary_only():
    # inside the package a semilinear object, a cocycle family and a module
    # are decided on generators (the *_on_generators checks); the exhaustive
    # reports are the tests' oracles, and check_module reads the modules a
    # caller hands to module_to_rep
    assert callers("check_semilinear") == set()
    assert callers("check_cocycle") == set()
    assert callers("check_module") == {"envalg.module_to_rep"}


def test_content_memos_serve_the_exhaustive_reports_only():
    # the boundary reports scan every pair of table entries and memoize the
    # products; every other check runs on generators and needs no memo
    assert callers("ContentMemo") == {"reps.check_representation", "ext.check_cocycle",
                                      "envalg.check_module"}


def test_splitting_reads_no_operator_table():
    # average_section, _corners (block_decompose), is_split,
    # _split_cocycles and their core _split_blocks read V, W and Q through
    # their verified views, never the 2 n m tables
    tree = dict(modules())["ext"]
    found = ["%s:%d" % (fn.name, node.lineno) for fn in tree.body
             if isinstance(fn, ast.FunctionDef)
             and fn.name in ("average_section", "block_decompose", "_corners", "is_split",
                             "_split_cocycles", "_split_blocks", "_splitting_maps")
             for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr in ("lam", "rho")]
    assert found == []


def test_the_collapse_builds_no_extension():
    # verify_collapse decides each cocycle in block form (_split_cocycles);
    # only `digrep split` averages and conjugates a sequence, and only the
    # public API builds the extension of a cocycle
    assert callers("extension_from_cocycle") == set()
    assert callers("is_split") == {"cli.cmd_split"}


def test_one_splitting_decision():
    # is_split and _split_cocycles decide through one block-form core,
    # _split_blocks, and it is the only function of the package that
    # checks a splitting witness (the one that raises on a wrong one)
    assert callers("_split_blocks") == {"ext.is_split", "ext._split_cocycles"}
    found = {name for stem, _ in modules() for name, fn in functions(stem).items()
             for node in ast.walk(fn)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "witness is not" in node.value}
    assert found == {"ext._split_blocks"}


def test_induction_is_written_on_integer_images():
    # induction_L builds eps^L with block_diag and t^L with
    # linalg.block_permutation: it cuts no identity into blocks and stacks
    # none, and only linalg writes a matrix from an integer image
    for name in ("hstack", "block", "identity"):
        assert not any(c.startswith("halo.induction_L") for c in callers(name)), name
    assert all(c.startswith("linalg.") for c in callers("_of_image"))


def test_halo_actions_read_coordinates_at_the_leads():
    # g_action_on_hom and ext1_BE apply one linalg.block_operator per
    # generator and read its coordinates with lead_coordinates, so no halo
    # code solves a coordinates elimination (that only linalg writes an
    # integer image is test_induction_is_written_on_integer_images)
    assert not any(c.startswith("halo.") for c in callers("coordinates"))
    assert {c for c in callers("lead_coordinates") if c.startswith("halo.")} == {
        "halo.g_action_on_hom", "halo.ext1_BE"}


def test_the_adjunction_checks_each_band_module_once():
    # verify_adjunction reads N's band law off require_valid_semilinear(n) and
    # builds no second band module of N; check_be_module goes through the
    # once registry, so induction_L's check of the caller's M is a lookup
    assert not any(c.startswith("halo.verify_adjunction") for c in callers("underlying_module"))
    assert "halo.check_be_module" in callers("once")


def generator_scans():
    """The dotted functions holding a comprehension or a loop nest that pairs
    a loop over a generating set (a .generators() call, or a name the same
    function binds to one) with a second loop."""
    def over_generators(it, names):
        return (isinstance(it, ast.Call) and getattr(it.func, "attr", None) == "generators"
                or isinstance(it, ast.Name) and it.id in names)

    found = set()
    for stem, tree in modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            names = {t.id for node in ast.walk(fn)
                     if isinstance(node, ast.Assign) and over_generators(node.value, ())
                     for t in node.targets if isinstance(t, ast.Name)}
            for node in ast.walk(fn):
                if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                    loops = [g.iter for g in node.generators]
                elif isinstance(node, ast.For):
                    loops = [n.iter for n in ast.walk(node) if isinstance(n, ast.For)]
                else:
                    continue
                if len(loops) > 1 and any(over_generators(it, names) for it in loops):
                    found.add("%s.%s" % (stem, fn.name))
    return found


def test_generated_homomorphism_is_the_one_group_law_scan():
    # digroup.generated_homomorphism is the only scan of G x S_G: it checks
    # and extends every group law (C1 and C2, the halo G-actions, the
    # enumerated homomorphisms).  The other scans over generators pair S_G
    # with the halo (C3, Z1b), the algebra's generators with its basis (the
    # module rule), or S_G with a Hom basis (the adjunction's spread check);
    # the derivation system reads its edges from the presentation
    # (test_derivations_are_solved_on_the_presentation)
    assert generator_scans() == {
        "digroup.generated_homomorphism",
        "reps.check_semilinear_on_generators",
        "ext.check_cocycle_on_generators",
        "ext._solve_ext1",
        "envalg.check_module_on_generators",
        "halo.verify_adjunction",
    }
    assert callers("generated_homomorphism") == {"reps.check_semilinear_on_generators",
                                                 "halo._extend_action",
                                                 "digroup.homomorphisms"}
    # every homomorphism out of G enumerated by its values on S_G is one
    # call of digroup.homomorphisms: the G-actions and the sign characters
    assert callers("homomorphisms") == {"digroup.all_actions", "reps.sign_characters"}


def test_derivations_are_solved_on_the_presentation():
    # derivation_ext1 reads its generators off the tree of
    # FDAlgebra.presentation() and writes one Fox equation per rule, with no
    # second closure scan
    assert callers("presentation") == {"envalg.derivation_ext1"}
    assert "envalg.derivation_ext1" not in callers("generators")


def test_one_closure_scan():
    # digroup.table_presentation is the one walk of a closure under
    # generators: table_generators grows its set through it, the algebra's
    # presentation and the group's visit order are read off it, and
    # generated_homomorphism walks that cached order with no walk of its own
    assert callers("table_presentation") == {"digroup.table_generators",
                                             "digroup.FiniteGroup._closure",
                                             "envalg.FDAlgebra.presentation"}
    assert callers("_closure") == {"digroup.FiniteGroup.generators",
                                   "digroup.generated_homomorphism"}
    fn = functions("digroup")["digroup.generated_homomorphism"]
    assert not [node for node in ast.walk(fn) if isinstance(node, ast.While)
                or isinstance(node, ast.Attribute) and node.attr in ("append", "add")]


def test_one_row_comparison():
    # digroup.row_failure is the one comparison of table rows: the group,
    # action and algebra associativity checks, the digroup axioms, and the
    # pair scans of R1-R5, the cocycle identities and the enveloping
    # algebra's relations through Digroup.pair_failures
    assert callers("row_failure") == {"digroup.FiniteGroup.associativity_failure",
                                      "digroup.GAction.__init__",
                                      "digroup.Digroup.pair_failures",
                                      "digroup.Digroup.check_axioms",
                                      "envalg.FDAlgebra.check"}
    assert callers("pair_failures") == {"reps.check_representation", "ext.check_cocycle",
                                        "envalg.check_relations"}


def functions(stem):
    """{dotted name: the function's ast} of every function and method of a
    module, nested ones included."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = scope + (child.name,)
                if isinstance(child, ast.FunctionDef):
                    found[".".join(name)] = child
                visit(child, name)
            else:
                visit(child, scope)

    visit(dict(modules())[stem], (stem,))
    return found


def loop_depth(node):
    """The most loops nested in node.  A for or while statement runs its body
    once per item and a comprehension clause runs the later clauses and the
    element once per item; a for statement's iterable and a comprehension's
    first iterable are evaluated once, outside its loop."""
    if isinstance(node, (ast.For, ast.While)):
        once = loop_depth(node.iter if isinstance(node, ast.For) else node.test)
        return max(once, 1 + max(loop_depth(n) for n in node.body + node.orelse))
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        gens = node.generators
        elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        inner = [(len(gens), e) for e in elts]
        inner += [(k, g.iter) for k, g in enumerate(gens) if k]
        inner += [(k + 1, test) for k, g in enumerate(gens) for test in g.ifs]
        return max([loop_depth(gens[0].iter)] + [k + loop_depth(n) for k, n in inner])
    return max((loop_depth(n) for n in ast.iter_child_nodes(node)), default=0)


def test_no_triple_loop_over_a_table():
    # the product tables of G, of the action, of D and of A_D are checked by
    # comparing rows (row_failure) and built row by row, so no function of
    # digroup or envalg nests three loops
    assert loop_depth(ast.parse("[[x for x in r] for r in t for _ in r]")) == 3
    assert loop_depth(ast.parse("for r in [x for a in t for x in a]:\n y = r")) == 2
    found = {name: loop_depth(fn) for stem in ("digroup", "envalg")
             for name, fn in functions(stem).items()}
    assert max(found.values()) == 2, {k: v for k, v in found.items() if v > 2}
