import dataclasses
import json
import re
import shlex
import string
import tomllib
from pathlib import Path

import pytest

from starksim.cli import EXIT_CONFIG, main
from starksim.config import (
    ConfigError,
    config_file_digest,
    default_config,
    dump_toml,
    dumps_config,
    loads_config,
)
from starksim.stark import EmitterParams, IonModel, lifetime_limited_fwhm_mhz

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# keys of the retired cavity model, permittivities, iterative-solver stopping
# rule and decay and g2 ion: read and dropped, never written
RETIRED = {
    "solver": {"tolerance_v": 1e-4, "max_iterations": 100},
    "dielectric": {"relative_permittivity_above": 1.0, "relative_permittivity_below": 9.0},
    "cavity": {
        "center_frequency_ghz": 195115.0,
        "quality_factor": 51000.0,
        "mode_volume_cubic_wavelengths": 1.0,
        "refractive_index": 3.48,
        "dip_depth": 0.9,
    },
    "emitter": {"branching_ratio": 0.2},
    "decay": {"ion_id": "ion4"},
    "g2": {"ion_id": "ion6"},
}


def assert_no_retired_key(text):
    data = tomllib.loads(text)
    for section, keys in RETIRED.items():
        assert not set(keys) & set(data.get(section, {})), section


class TestTomlSubset:
    """The file is TOML, read by tomllib; the schema takes a subset of its shapes."""

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 2"):
            loads_config("[layout]\nnot a key value\n")
        with pytest.raises(ConfigError, match="line 3"):
            loads_config("[layout]\ngap_um = 100.0\ndomain_extent_um = [1000.0 600.0]\n")
        with pytest.raises(ConfigError, match="unknown section"):
            loads_config("key_before_section = 1\n")

    def test_hash_inside_a_string_is_no_comment(self):
        config = loads_config('[run]\noutput_dir = "runs # 1"  # trailing comment\n')
        assert config.run.output_dir == "runs # 1"

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigError, match="line 3"):
            loads_config("[layout]\ngap_um = 100.0\ngap_um = 50.0\n")

    def test_dump_round_trip(self):
        data = {"s": {"x": 1.5, "n": 3, "name": 'v "q" \\ \t\n\x00\x7f\u2028', "arr": [1, 2]}}
        assert tomllib.loads(dump_toml(data)) == data

    # Forms the writer never produces: each loads to the config of its plain
    # spelling, or exits 2 naming its [section].key, its line or the limit it breaks.
    @pytest.mark.parametrize(
        "text, plain, error",
        [
            pytest.param("[layout]\ngap_um = 1979-05-27\n", None, r"\[layout\]\.gap_um: expected a number", id="date"),
            pytest.param("[detector]\ndark_rate_hz = 07:32:00\n", None,
                         r"\[detector\]\.dark_rate_hz: expected a number", id="time"),
            pytest.param("[stark]\nvoltages_v = [[0.0], [1.0], [2.0]]\n", None,
                         r"\[stark\]\.voltages_v: expected a number", id="nested-array"),
            pytest.param("[layout.extra]\n", None, r"\[layout\]: unknown key 'extra'", id="sub-table"),
            pytest.param("[layout]\ngap.um = 1.0\n", None, r"\[layout\]: unknown key 'gap'", id="dotted-key"),
            pytest.param("layout = {gap_um = 110.0}\n", "[layout]\ngap_um = 110.0\n", None, id="inline-table"),
            pytest.param(
                "ions = [{id = 'a', stark_coefficient_khz_per_v_cm = 1.0, zero_field_fwhm_mhz = 7.0}]\n",
                '[[ions]]\nid = "a"\nstark_coefficient_khz_per_v_cm = 1.0\nzero_field_fwhm_mhz = 7.0\n',
                None,
                id="inline-ions",
            ),
            pytest.param("layout = 5\n", None, r"\[layout\] must be a plain section, got int", id="section-int"),
            pytest.param('layout = "x"\n', None, r"\[layout\] must be a plain section, got str", id="section-str"),
            pytest.param("ions = [1, 2]\n", None, r"\[\[ions\]\]: each entry must be a table, got int", id="ions-int"),
            pytest.param('ions = ["a"]\n', None, r"\[\[ions\]\]: each entry must be a table, got str", id="ions-str"),
            pytest.param("[run]\nseed = 0x10\n", "[run]\nseed = 16\n", None, id="hex"),
            pytest.param("[run]\noutput_dir = 'a\\b'\n", '[run]\noutput_dir = "a\\\\b"\n', None, id="literal-string"),
            pytest.param("[layout]\n\ngap_um = Infinity\n", None, "line 3", id="Infinity"),
            pytest.param("[layout]\ngap_um = .5\n", None, "line 2", id="leading-dot"),
            pytest.param("[layout]\ngap_um = 1.\n", None, "line 2", id="trailing-dot"),
            # past Python's int string-conversion limit, which tomllib does not catch
            pytest.param("[layout]\ngap_um = 1" + "0" * 5000 + "\n", None,
                         "an integer has more than 4300 digits, Python's limit", id="int-past-4300-digits"),
        ],
    )
    def test_toml_forms_the_writer_never_produces(self, capsys, tmp_path, text, plain, error):
        if plain is not None:
            assert loads_config(text) == loads_config(plain) != default_config()
            return
        path = tmp_path / "form.toml"
        path.write_text(text, encoding="utf-8")
        code = main(["field", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert re.search(error, err) and "Traceback" not in err
        assert "set_int_max_str_digits" not in err
        assert not (tmp_path / "out").exists()


class TestExperimentConfig:
    def test_round_trip_identity(self):
        config = default_config()
        assert loads_config(dumps_config(config)) == config

    def test_round_trip_is_stable_text(self):
        text = dumps_config(default_config())
        assert dumps_config(loads_config(text)) == text

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            loads_config("[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            loads_config("[layout]\ngap_mm = 1.0\n")

    def test_duplicate_ion_ids_rejected(self):
        text = (
            "[[ions]]\nid = \"a\"\nstark_coefficient_khz_per_v_cm = 1.0\nzero_field_fwhm_mhz = 5.0\n"
            "[[ions]]\nid = \"a\"\nstark_coefficient_khz_per_v_cm = 2.0\nzero_field_fwhm_mhz = 5.0\n"
        )
        with pytest.raises(ConfigError, match="unique"):
            loads_config(text)

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            loads_config("[run]\nseed = 1.5\n")

    def test_invalid_geometry_becomes_config_error(self):
        with pytest.raises(ConfigError, match="gap"):
            loads_config("[layout]\ngap_um = -3.0\n")

    def test_figure_ion_must_exist(self):
        with pytest.raises(ConfigError, match="ion_id"):
            loads_config("[stark]\nion_id = \"ion99\"\n")

    # fig2 and fig3 never read the sweep, yet refuse such a file too
    @pytest.mark.parametrize("figure", ["fig4a", "fig2"])
    @pytest.mark.parametrize("voltages", ["[0.0, 0.0, 333.0]", "[-0.0, 0.0, 111.0, 111.0]"], ids=["repeat", "signed-zero"])
    def test_stark_voltages_must_be_distinct(self, capsys, tmp_path, figure, voltages):
        path = tmp_path / "sweep.toml"
        path.write_text(f"[stark]\nvoltages_v = {voltages}\n", encoding="utf-8")
        code = main(["reproduce", figure, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == "error: invalid configuration: [stark].voltages_v needs at least 3 distinct voltages, got 2\n"
        assert not (tmp_path / "out").exists()

    def test_defaults_match_paper_values(self):
        config = default_config()
        assert config.layout.gap_um == 100.0
        assert config.layout.electrode_width_um == 200.0
        assert config.layout.bias_v == 333.0
        assert config.emitter.bulk_lifetime_ms == 11.4
        assert config.emitter.enhancement_factor == 278.0
        assert config.detector.total_efficiency == 0.01
        assert config.detector.dark_rate_hz == 2.0
        assert config.protocol.pulse_length_us == 10.0
        assert config.protocol.repetition_rate_khz == 10.0
        assert config.protocol.window_delay_us == 1.0
        assert config.protocol.window_length_us == 85.0
        assert config.protocol.integration_time_s == 5.0
        assert config.protocol.scan_pitch_mhz == 5.0
        assert config.run.seed == 0xE53_1536
        assert config.run.max_voltage_v == 333.0
        assert len(config.ions) == 7
        assert config.ion("ion1").stark_coefficient_khz_per_v_cm == 19.8
        assert config.ion("ion7").stark_coefficient_khz_per_v_cm == -9.8

    def test_registry_matches_reported_statistics(self):
        import numpy as np

        config = default_config()
        magnitudes = np.array(
            [abs(config.ion(f"ion{k}").stark_coefficient_khz_per_v_cm) for k in range(1, 7)]
        )
        assert magnitudes.mean() == pytest.approx(20.0, abs=1e-4)
        assert magnitudes.std(ddof=1) == pytest.approx(5.8, abs=1e-4)

    def test_ion2_calibrated_to_maximum_shift(self):
        # coefficient chosen so the empirical shift at the full 333 V bias is
        # -182.9 MHz for the default solve (probe field 21652.504... V/cm)
        s2 = default_config().ion("ion2").stark_coefficient_khz_per_v_cm
        assert s2 == pytest.approx(-182.9e3 / 21652.504560964684, rel=1e-12)

    def test_both_shift_classes_present(self):
        signs = {ion.stark_coefficient_khz_per_v_cm > 0.0 for ion in default_config().ions}
        assert signs == {True, False}

    def test_lifetime_limit_checked_for_every_ion(self):
        # the default lifetime, 41 us, limits a linewidth to at least 3.9 kHz
        config = default_config()
        narrow = dataclasses.replace(config.ions[3], zero_field_fwhm_mhz=1e-3)
        with pytest.raises(ConfigError, match=r"\[emitter\] with ion 'ion4'"):
            dataclasses.replace(config, ions=(*config.ions[:3], narrow))

    def test_rejects_linewidth_below_lifetime_limit(self):
        config = default_config()
        limit = lifetime_limited_fwhm_mhz(config.emitter.lifetime_us)
        narrow, wide = (dataclasses.replace(config.ions[0], zero_field_fwhm_mhz=limit * f) for f in (0.9, 1.1))
        message = r"\[emitter\] with ion 'ion1': linewidth .* MHz is below the lifetime limit"
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(config, ions=(narrow,))
        assert dataclasses.replace(config, ions=(wide,)).ions == (wide,)

    def test_shared_emitter_derivation(self):
        config = default_config()
        assert config.emitter.lifetime_us == pytest.approx(41.0, abs=0.01)
        assert config.emitter.saturation_excitation_prob == 0.5
        ion = config.ion("ion1")
        assert ion.zero_field_fwhm_mhz == 6.7
        assert ion.zero_field_frequency_mhz == 0.0

    def test_partial_override_keeps_other_defaults(self):
        config = loads_config("[detector]\ndark_rate_hz = 5.0\n")
        assert config.detector.dark_rate_hz == 5.0
        assert config.detector.total_efficiency == 0.01
        assert config.protocol.window_length_us == 85.0

    def test_digest_stable(self):
        text = dumps_config(default_config())
        assert config_file_digest(text) == config_file_digest(text)
        assert config_file_digest(text) != config_file_digest(text + "\n# change\n")

    def test_ion_ids_limited_to_file_safe_characters(self):
        config = default_config()
        for bad in ('a"#b', "a\nb", "a/b", ""):
            ion = dataclasses.replace(config.ions[0], ion_id=bad)
            with pytest.raises(ConfigError, match=r"\[\[ions\]\]\.id"):
                dataclasses.replace(config, ions=(ion,))

    def test_output_dir_must_survive_the_round_trip(self):
        config = default_config()
        for bad in ("a\nb", "a\r", "a\u2028b"):
            with pytest.raises(ConfigError, match=r"\[run\]\.output_dir"):
                dataclasses.replace(config.run, output_dir=bad)
        for good in ("runs #1/a\\b", 'runs"#x'):
            stored = dataclasses.replace(config, run=dataclasses.replace(config.run, output_dir=good))
            assert loads_config(dumps_config(stored)) == stored

    def test_enhancement_factor_must_be_set(self):
        with pytest.raises(TypeError):
            EmitterParams(11.4, None)
        with pytest.raises(TypeError):
            EmitterParams(11.4)

    def test_default_dump_matches_committed_out(self):
        # the golden default dump is tracked, so a fresh clone checks it too
        committed = FIXTURES / "default_config.toml"
        assert dumps_config(default_config()) == committed.read_text(encoding="utf-8")

    def test_committed_manifest_digests_its_config(self, capsys, tmp_path):
        # `starksim field --out DIR` with the defaults stores the golden dump and its digest
        assert main(["field", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        stored = (tmp_path / "config.toml").read_text(encoding="utf-8")
        assert stored == (FIXTURES / "default_config.toml").read_text(encoding="utf-8")
        assert manifest["config_digest"] == config_file_digest(stored)
        assert manifest["command"] == shlex.join(["starksim", "field", "--out", str(tmp_path)])


class TestRetiredKeys:
    """The cavity model's keys, the permittivities, the solver's stopping
    rule and the decay and g2 ion reach no output and are retired: a stored
    config.toml holding them still loads, and no file is written with them."""

    def test_pre_retirement_fixture_loads_to_the_defaults(self):
        text = (FIXTURES / "config_with_retired_keys.toml").read_text(encoding="utf-8")
        assert "[cavity]" in text and "branching_ratio" in text and "[dielectric]" in text
        assert "tolerance_v" in text and "max_iterations" in text
        assert loads_config(text) == default_config()

    def test_default_dump_has_no_retired_section(self):
        text = dumps_config(default_config())
        assert "[cavity]" not in text and "[dielectric]" not in text
        assert_no_retired_key(text)

    def test_retired_keys_are_dropped(self):
        base = "[emitter]\nbulk_lifetime_ms = 10.0\n\n[run]\nseed = 3\n"
        sections = {
            "cavity": {**RETIRED["cavity"], "quality_factor": 7},
            "dielectric": RETIRED["dielectric"],
            "solver": RETIRED["solver"],
            "decay": RETIRED["decay"],
            "g2": RETIRED["g2"],
        }
        retired = dump_toml(sections) + (
            "[emitter]\nbulk_lifetime_ms = 10.0\nbranching_ratio = 1e9\n\n[run]\nseed = 3\n"
        )
        assert loads_config(retired) == loads_config(base)
        assert loads_config(retired).emitter.bulk_lifetime_ms == 10.0
        assert loads_config("[cavity]\n") == default_config()
        assert loads_config("[dielectric]\n") == default_config()
        assert loads_config(dump_toml({"decay": RETIRED["decay"], "g2": RETIRED["g2"]})) == default_config()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[cavity]\nquality_factor = nan\n", r"\[cavity\]\.quality_factor must be finite"),
            ("[emitter]\nbranching_ratio = inf\n", r"\[emitter\]\.branching_ratio must be finite"),
            ('[cavity]\ndip_depth = "deep"\n', r"\[cavity\]\.dip_depth: expected a number"),
            ("[cavity]\nlinewidth_ghz = 3.8\n", r"\[cavity\]: unknown key 'linewidth_ghz'"),
            ("[[cavity]]\nquality_factor = 1.0\n", r"\[cavity\] must be a plain section"),
            ("[decay]\nion_id = 5\n", r"\[decay\]\.ion_id: expected a string"),
            ("[g2]\nion_id = 1.0\n", r"\[g2\]\.ion_id: expected a string"),
            ("[dielectric]\nrelative_permittivity = 9.0\n",
             r"\[dielectric\]: unknown key 'relative_permittivity'"),
        ],
    )
    def test_retired_section_still_checked(self, text, message):
        with pytest.raises(ConfigError, match=message):
            loads_config(text)

    def test_range_checks_retired_with_their_keys(self):
        text = (
            "[cavity]\nquality_factor = -1.0\ndip_depth = 2.0\n\n[emitter]\nbranching_ratio = 0.0\n\n"
            "[dielectric]\nrelative_permittivity_above = 0.5\n\n[solver]\ntolerance_v = -1.0\nmax_iterations = 0\n"
        )
        assert loads_config(text) == default_config()


def test_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    ion_ids = st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=12)

    @st.composite
    def configs(draw):
        base = default_config()
        ids = draw(st.lists(ion_ids, min_size=1, max_size=9, unique=True))
        ions = []
        for ion_id in ids:
            ions.append(
                IonModel(
                    ion_id=ion_id,
                    zero_field_frequency_mhz=draw(finite),
                    stark_coefficient_khz_per_v_cm=draw(finite),
                    zero_field_fwhm_mhz=draw(st.floats(min_value=1e-3, max_value=1e3)),
                    broadening_mhz_per_kv_cm=draw(st.floats(min_value=0.0, max_value=1e3)),
                )
            )
        figure_ion = st.sampled_from(["", *ids])
        config = dataclasses.replace(
            base,
            ions=tuple(ions),
            # no enhancement: a lifetime limit below every drawn linewidth
            emitter=dataclasses.replace(
                base.emitter,
                enhancement_factor=1.0,
                saturation_excitation_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
            ),
        )
        # drawn independently, so some sweeps exceed the supply: built in check()
        run = dataclasses.replace(
            base.run,
            seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
            max_voltage_v=draw(st.floats(min_value=1e-3, max_value=1e4)),
        )
        stark = dataclasses.replace(
            base.stark,
            ion_id=draw(figure_ion),
            voltages_v=tuple(draw(st.lists(finite, min_size=3, max_size=12, unique=True))),
        )
        return config, run, stark

    # values a file cannot hold: strings are written between quotes, one key per line
    enhancement_factors = st.floats(min_value=1.0, max_value=1e4)
    output_dirs = st.text(st.sampled_from('"#\\/ \n\r\x0b\x85\u2028ab') | st.characters(), max_size=12)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(configs(), enhancement_factors, output_dirs)
    def check(drawn, enhancement_factor, output_dir):
        config, run, stark = drawn
        writable = not any(ch in output_dir for ch in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
        emitter = dataclasses.replace(config.emitter, enhancement_factor=enhancement_factor)
        limit = lifetime_limited_fwhm_mhz(emitter.lifetime_us)
        valid = (
            writable
            and all(ion.zero_field_fwhm_mhz >= limit for ion in config.ions)
            and all(abs(v) <= run.max_voltage_v for v in stark.voltages_v)
        )
        try:
            config = dataclasses.replace(
                config, emitter=emitter, run=dataclasses.replace(run, output_dir=output_dir), stark=stark
            )
        except ConfigError:
            assert not valid
            return
        assert valid
        text = dumps_config(config)
        assert_no_retired_key(text)
        assert loads_config(text) == config

    check()
