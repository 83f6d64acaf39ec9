"""Tests for the CIM/MOF front end."""

import pytest

from repro.errors import MofError
from repro.spec.mof import (
    CimProperty,
    CimRepository,
    load_resource_model,
    parse,
    render_resource_mof,
    schema_repository,
    tokenize,
)

SIMPLE_CLASS = """
[Description("A demo class")]
class Demo_Thing {
    string Name;
    uint32 Count = 3;
    boolean Active = true;
    string Tags[];
};
"""


class TestLexer:
    def test_tokenizes_keywords_case_insensitively(self):
        tokens = tokenize("CLASS Instance OF")
        assert [t.kind for t in tokens] == ["keyword"] * 3
        assert [t.value for t in tokens] == ["class", "instance", "of"]

    def test_string_escapes(self):
        tokens = tokenize('"a\\n\\"b\\\\"')
        assert tokens[0].value == 'a\n"b\\'

    def test_comments_skipped(self):
        tokens = tokenize("// line\n/* block\nstill */ class")
        assert len(tokens) == 1

    def test_unterminated_block_comment(self):
        with pytest.raises(MofError):
            tokenize("/* never closed")

    def test_negative_number(self):
        tokens = tokenize("-42")
        assert tokens[0].value == -42

    def test_float_number(self):
        tokens = tokenize("3.5")
        assert tokens[0].value == 3.5

    def test_position_tracking(self):
        tokens = tokenize("class\n  Foo")
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_rejects_stray_character(self):
        with pytest.raises(MofError):
            tokenize("class @")


class TestParser:
    def test_parse_class(self):
        repo = parse(SIMPLE_CLASS)
        cls = repo.get_class("Demo_Thing")
        assert cls.qualifiers["Description"] == "A demo class"
        assert cls.property("Count").default == 3
        assert cls.property("Tags").is_array

    def test_parse_instance_with_defaults(self):
        repo = parse(SIMPLE_CLASS + """
        instance of Demo_Thing { Name = "x"; };
        """)
        inst = repo.single("Demo_Thing")
        assert inst.get("Name") == "x"
        assert inst.get("Count") == 3
        assert inst.get("Active") is True

    def test_parse_array_value(self):
        repo = parse(SIMPLE_CLASS + """
        instance of Demo_Thing { Name = "x"; Tags = {"a", "b"}; };
        """)
        assert repo.single("Demo_Thing").get("Tags") == ("a", "b")

    def test_empty_array_value(self):
        repo = parse(SIMPLE_CLASS + """
        instance of Demo_Thing { Name = "x"; Tags = {}; };
        """)
        assert repo.single("Demo_Thing").get("Tags") == ()

    def test_unknown_class_rejected(self):
        with pytest.raises(MofError):
            parse('instance of Nope { Name = "x"; };')

    def test_unknown_property_rejected(self):
        with pytest.raises(MofError):
            parse(SIMPLE_CLASS + "instance of Demo_Thing { Missing = 1; };")

    def test_type_mismatch_rejected(self):
        with pytest.raises(MofError):
            parse(SIMPLE_CLASS + "instance of Demo_Thing { Name = 5; };")

    def test_unsigned_rejects_negative(self):
        with pytest.raises(MofError):
            parse(SIMPLE_CLASS + 'instance of Demo_Thing { Count = -1; };')

    def test_scalar_rejects_array(self):
        with pytest.raises(MofError):
            parse(SIMPLE_CLASS + 'instance of Demo_Thing { Name = {"a"}; };')

    def test_duplicate_class_rejected(self):
        with pytest.raises(MofError):
            parse(SIMPLE_CLASS + SIMPLE_CLASS)

    def test_duplicate_property_assignment_rejected(self):
        with pytest.raises(MofError):
            parse(SIMPLE_CLASS +
                  'instance of Demo_Thing { Name = "a"; Name = "b"; };')

    def test_unknown_type_rejected(self):
        with pytest.raises(MofError):
            parse("class Bad { varchar Name; };")

    def test_error_carries_location(self):
        with pytest.raises(MofError) as excinfo:
            parse("class Bad {\n  varchar Name;\n};", source="bad.mof")
        assert "bad.mof:2" in str(excinfo.value)


class TestModel:
    def test_require_missing_property(self):
        repo = parse(SIMPLE_CLASS + 'instance of Demo_Thing { Count = 1; };')
        with pytest.raises(MofError):
            repo.single("Demo_Thing").require("Name")

    def test_single_rejects_many(self):
        repo = parse(SIMPLE_CLASS + """
        instance of Demo_Thing { Name = "a"; };
        instance of Demo_Thing { Name = "b"; };
        """)
        with pytest.raises(MofError):
            repo.single("Demo_Thing")

    def test_merge_repositories(self):
        first = parse(SIMPLE_CLASS)
        second = CimRepository()
        second.merge(first)
        second.add_instance("Demo_Thing", {"Name": "merged"})
        assert second.single("Demo_Thing").get("Name") == "merged"

    def test_property_check_boolean_not_int(self):
        prop = CimProperty(name="Flag", cim_type="uint32")
        with pytest.raises(MofError):
            prop.check(True, "Demo")


class TestElbaSchema:
    def test_schema_parses(self):
        repo = schema_repository()
        assert "Elba_Cluster" in repo.classes
        assert "Elba_TierAssignment" in repo.classes

    def test_schema_repositories_share_no_state(self):
        first, second = schema_repository(), schema_repository()
        assert first.classes is not second.classes
        parse('instance of Elba_Cluster { Name = "a"; Platform = "emulab"; };',
              repository=first)
        assert len(first.instances) == 1 and second.instances == []
        first.classes.pop("Elba_Cluster")
        assert "Elba_Cluster" in schema_repository().classes

    def test_resource_models_share_no_instances(self):
        mof = render_resource_mof("rubis", "emulab")
        first, second = load_resource_model(mof), load_resource_model(mof)
        assert first == second
        assert first.tiers is not second.tiers
        assert first.overrides is not second.overrides

    def test_redeclaring_a_schema_class_still_raises(self):
        mof = "class Elba_Cluster { string Name; };"
        with pytest.raises(MofError,
                           match="duplicate class declaration 'Elba_Cluster'"):
            load_resource_model(mof)

    def test_render_and_load_rubis_emulab(self):
        mof = render_resource_mof("rubis", "emulab")
        model = load_resource_model(mof)
        assert model.platform.name == "emulab"
        assert set(model.tiers) == {"web", "app", "db"}
        assert [p.name for p in model.tiers["app"].packages] == [
            "tomcat", "jonas"
        ]

    def test_render_with_weblogic_override(self):
        mof = render_resource_mof("rubis", "warp", app_server="weblogic")
        model = load_resource_model(mof)
        assert [p.name for p in model.tiers["app"].packages] == [
            "tomcat", "weblogic"
        ]

    def test_render_rubbos_has_no_ejb_container(self):
        mof = render_resource_mof("rubbos", "emulab")
        model = load_resource_model(mof)
        assert [p.name for p in model.tiers["app"].packages] == ["tomcat"]

    def test_db_tier_daemon_is_mysql_not_controller(self):
        mof = render_resource_mof("rubis", "emulab")
        model = load_resource_model(mof)
        assert model.tiers["db"].daemon_package().name == "mysql"

    def test_app_tier_daemon_is_last_package(self):
        mof = render_resource_mof("rubis", "emulab")
        model = load_resource_model(mof)
        assert model.tiers["app"].daemon_package().name == "jonas"

    def test_custom_node_type_for_db(self):
        mof = render_resource_mof("rubis", "emulab",
                                  node_types={"db": "emulab-low"})
        model = load_resource_model(mof)
        assert model.tiers["db"].node_type.cpu_ghz == 0.6
        assert model.tiers["app"].node_type.cpu_ghz == 3.0

    def test_unknown_platform_rejected(self):
        with pytest.raises(Exception):
            render_resource_mof("rubis", "atlantis")

    def test_package_override_applied(self):
        mof = render_resource_mof("rubis", "emulab") + """
        instance of Elba_PackageOverride {
            Package = "jonas";
            WorkerPool = 64;
        };
        """
        model = load_resource_model(mof)
        assert model.package("jonas").worker_pool == 64
        # Untouched attribute keeps its catalog value.
        assert model.package("jonas").efficiency == 1.0

    def test_tier_mismatch_rejected(self):
        bad = """
        instance of Elba_Cluster { Name = "c"; Platform = "emulab"; };
        instance of Elba_TierAssignment {
            Cluster = "c"; Tier = "web"; Software = {"mysql"};
        };
        """
        with pytest.raises(MofError):
            load_resource_model(bad)

    def test_duplicate_tier_rejected(self):
        dup = """
        instance of Elba_Cluster { Name = "c"; Platform = "emulab"; };
        instance of Elba_TierAssignment {
            Cluster = "c"; Tier = "web"; Software = {"apache"};
        };
        instance of Elba_TierAssignment {
            Cluster = "c"; Tier = "web"; Software = {"apache"};
        };
        """
        with pytest.raises(MofError):
            load_resource_model(dup)
