"""Each input rule has one home, in ``core`` or, for array values, ``states._frozen_vector``,
and every entry that takes the input applies it."""

import dataclasses
import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import lossyphase
from lossyphase import loss, povm, states, sweep
from lossyphase.core import channel_from_loss
from lossyphase.loss import ReducedDensity, pure_lossy_state, reduced_density
from lossyphase.states import AmplitudeVector, optimal_amplitudes

# every entry that takes a photon number, and the name its messages give it
PHOTON_NUMBER_ENTRIES = {
    "optimal_amplitudes": (optimal_amplitudes, "photon number"),
    "sine_density": (lambda n: list(sweep.sine_density(0.1, n, 20000)), "photon number"),
    "sine_mass": (lambda n: sweep.sine_mass(0.1, n), "photon number"),
    "nopt_vs_loss": (lambda n: sweep.nopt_vs_loss([0.1], n), "n-max"),
    "lossless_reference": (povm.lossless_reference, "photon number"),
}


# every entry that takes a loss, each reduced to a value that == or np.array_equal compares
LOSS_STATE = optimal_amplitudes(4)
LOSS_ENTRIES = {
    "curve": lambda loss: sweep.curve(loss, 1, 8),
    "nopt_vs_loss": lambda loss: sweep.nopt_vs_loss([loss], 64),
    "sine_density": lambda loss: list(sweep.sine_density(loss, 4, 64)),
    "sine_mass": lambda loss: sweep.sine_mass(loss, 4),
    "pure_lossy_state": lambda loss: np.concatenate(pure_lossy_state(LOSS_STATE, loss).coeffs),
    "reduced_density": lambda loss: np.concatenate(
        list(reduced_density(LOSS_STATE, loss).factors.values())),
    "distribution": lambda loss: povm.distribution(LOSS_STATE, loss).factor,
    "sharpness_closed": lambda loss: povm.sharpness_closed(LOSS_STATE, loss),
    "phase_estimate": lambda loss: povm.phase_estimate(LOSS_STATE, loss),
}


@pytest.fixture(params=sorted(PHOTON_NUMBER_ENTRIES))
def entry(request):
    return PHOTON_NUMBER_ENTRIES[request.param]


@pytest.fixture(params=sorted(LOSS_ENTRIES))
def loss_entry(request):
    return LOSS_ENTRIES[request.param]


class TestPhotonNumber:
    def test_accepts_any_integer_type(self, entry):
        call, _ = entry
        result = call(np.int64(5))
        expected = call(5)
        if isinstance(result, AmplitudeVector):
            result, expected = result.psi, expected.psi
        assert np.array_equal(np.asarray(result), np.asarray(expected))

    @pytest.mark.parametrize("bad", [5.0, True])
    def test_refuses_float_and_bool(self, entry, bad):
        call, name = entry
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {type(bad).__name__}$"):
            call(bad)

    @pytest.mark.parametrize("n", [0, -3])
    def test_refuses_below_one(self, entry, n):
        call, name = entry
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {n}$"):
            call(n)

    def test_refuses_past_the_cap(self, entry):
        call, _ = entry
        with pytest.raises(ValueError, match="^photon number 4097 exceeds the supported maximum 4096$"):
            call(4097)

    def test_curve_range_then_the_rule(self):
        # both bounds meet the integer rule, then the range keeps its own message,
        # then n_max meets the cap
        for n_min, n_max in [(1, 0), (0, 10), (20, 10)]:
            with pytest.raises(ValueError, match=f"^need 1 <= n_min <= n_max, got {n_min}:{n_max}$"):
                sweep.curve(0.1, n_min, n_max)
        with pytest.raises(TypeError, match="^photon number must be an integer, got bool$"):
            sweep.curve(0.1, 1, True)
        with pytest.raises(TypeError, match="^n_min must be an integer, got bool$"):
            sweep.curve(0.1, True, 10)
        with pytest.raises(TypeError, match="^n_min must be an integer, got float$"):
            sweep.curve(0.1, 2.0, 10)
        with pytest.raises(TypeError, match="^n_min must be an integer, got NoneType$"):
            sweep.curve(0.1, None, 10)
        with pytest.raises(TypeError, match="^photon number must be an integer, got float$"):
            sweep.curve(0.1, 5, 2.5)
        assert sweep.curve(0.1, 1, np.int64(5)).n == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("estimate",[povm.phase_estimate, povm.sharpness_closed])
    def test_sharpness_refuses_no_photons(self, estimate):
        with pytest.raises(ValueError, match="^photon number must be >= 1, got 0$"):
            estimate(AmplitudeVector([1.0]), 0.1)


class TestLoss:
    @pytest.mark.parametrize("bad", [-0.1, math.nan, 1.0, 1.5, math.inf])
    def test_refuses_out_of_range_in_the_rule_s_words(self, loss_entry, bad):
        with pytest.raises(ValueError) as rule:
            channel_from_loss(bad)
        with pytest.raises(ValueError) as refused:
            loss_entry(bad)
        assert str(refused.value) == str(rule.value)

    @pytest.mark.parametrize("loss,message", [
        (1.0, "loss must be < 1, got 1.0"),
        (math.inf, "loss must be < 1, got inf"),
        (-math.inf, "loss must be >= 0, got -inf"),
        (math.nan, "loss must be >= 0, got nan"),
    ])
    def test_infinite_and_nan_messages(self, loss, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            channel_from_loss(loss)

    @pytest.mark.parametrize("bad", ["0.1", True, None])
    def test_refuses_a_non_real_type(self, loss_entry, bad):
        with pytest.raises(TypeError, match=f"^loss must be a real number, got {type(bad).__name__}$"):
            loss_entry(bad)

    def test_accepts_numpy_float(self, loss_entry):
        result, expected = loss_entry(np.float64(0.3)), loss_entry(0.3)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(result, expected)
        else:
            assert result == expected

    @pytest.mark.parametrize("loss", [0.0, 5e-324, 0.3, 1 - 2.0**-53, np.float64(0.3), 0, Fraction(1, 3), -0.0])
    def test_rule_returns_a_float(self, loss):
        # -0.0 passes the range and comes back as +0.0, so no file shows a signed zero
        checked = channel_from_loss(loss)
        assert type(checked) is float and checked == float(loss) and math.copysign(1.0, checked) == 1.0

    @pytest.mark.parametrize("grid,error", [
        (["0.1"], TypeError),
        ([0.1, False], TypeError),
        ([0.5, "0.1"], TypeError),  # the type before the order
        ([0.5, None, 0.1], TypeError),
        ([0.5, 0.1], ValueError),
    ])
    def test_grid_checks_each_type_first(self, grid, error):
        with pytest.raises(error, match="^loss must be a real number, got |^loss grid must not descend"):
            sweep.nopt_vs_loss(grid, 8)


# every entry that takes a number of phase samples, at N = 2
PHASE_SAMPLE_ENTRIES = {
    "sine_density": lambda samples: list(sweep.sine_density(0.1, 2, samples)),
    "evaluate": lambda samples: povm.distribution(
        optimal_amplitudes(2), 0.1).evaluate(samples)[1],
}


@pytest.mark.parametrize("call", PHASE_SAMPLE_ENTRIES.values(), ids=list(PHASE_SAMPLE_ENTRIES))
class TestPhaseSamples:
    def test_accepts_any_integer_type(self, call):
        assert np.array_equal(np.asarray(call(np.int64(64))), np.asarray(call(64)))

    @pytest.mark.parametrize("bad", [64.0, True])
    def test_refuses_float_and_bool(self, call, bad):
        with pytest.raises(TypeError, match=f"^phase samples must be an integer, got {type(bad).__name__}$"):
            call(bad)


@pytest.mark.parametrize("n,samples", [(1, 7), (20, 83), (256, 64), (4096, 16387)])
def test_one_nyquist_message(n, samples):
    # the FFT oracle and the closed form that ``dist`` writes refuse a grid in the same words
    dist = povm.distribution(optimal_amplitudes(n), 0.1)
    with pytest.raises(ValueError) as fft:
        dist.evaluate(samples)
    with pytest.raises(ValueError) as closed:
        sweep.sine_density(0.1, n, samples)
    assert str(fft.value) == str(closed.value) == (
        f"{samples} phase samples are below the Nyquist guard {4 * (n + 1)} for N = {n}")


# every numpy value type, each built from one vector and read back as the array
# it stores, and the name its messages give that vector; a density holds the
# vector as block 0 at the vector's own photon number, or at N = 1 below that
VALUE_TYPES = {
    "AmplitudeVector": (lambda v: AmplitudeVector(v).psi, "psi"),
    "PhaseDistribution": (lambda v: povm.PhaseDistribution(v).factor, "factor"),
    "ReducedDensity": (lambda v: ReducedDensity(max(np.size(v) - 1, 1), {0: v}).factors[0], "factor 0"),
}


def test_every_value_type_passes_the_one_rule():
    # a dataclass that checks its fields is a value type, so the table below must cover it
    checked = {name for module in (states, povm, loss) for name, cls in vars(module).items()
               if dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls)}
    assert checked == set(VALUE_TYPES)


def test_every_entry_is_in_a_rule_table():
    # a public function that takes a rule's input must be in that rule's table;
    # channel_from_loss is the loss rule, and curve's range has its own test
    tables = {"loss": LOSS_ENTRIES, "loss_grid": LOSS_ENTRIES, "n": PHOTON_NUMBER_ENTRIES,
              "n_photons": PHOTON_NUMBER_ENTRIES, "n_max": PHOTON_NUMBER_ENTRIES,
              "samples": PHASE_SAMPLE_ENTRIES}
    public = {name: getattr(lossyphase, name) for name in lossyphase.__all__} | {
        name: value for name, value in vars(sweep).items() if not name.startswith("_")}
    missing = [(name, [p for p in inspect.signature(value).parameters if p in tables and name not in tables[p]])
               for name, value in sorted(public.items())
               if inspect.isfunction(value) and name not in ("channel_from_loss", "curve")]
    assert [(name, params) for name, params in missing if params] == []


class TestArrayEntries:
    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    @pytest.mark.parametrize("values,dtype", [
        (np.array([0.6 + 0.5j, 0.8]), "complex128"),  # numpy keeps [0.6, 0.8] with only a warning
        (["0.6", "0.8"], "<U3"),
        ([True, False], "bool"),
    ], ids=["complex", "str", "bool"])
    def test_refuses_entries_numpy_would_coerce(self, name, values, dtype):
        build, label = VALUE_TYPES[name]
        with pytest.raises(TypeError, match=f"^{label} entries must be integers or floats, got dtype {dtype}$"):
            build(values)

    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    @pytest.mark.parametrize("values", [[[0.6, 0.8]], [], 1.0], ids=["2d", "empty", "scalar"])
    def test_refuses_all_but_a_nonempty_vector(self, name, values):
        build, label = VALUE_TYPES[name]
        shape = re.escape(str(np.shape(values)))
        with pytest.raises(ValueError, match=f"^{label} has shape {shape}, expected "):
            build(values)

    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite(self, name, bad):
        build, label = VALUE_TYPES[name]
        with pytest.raises(ValueError, match=f"^{label} entries must be finite$"):
            build([bad, 1.0])

    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    def test_refuses_past_the_photon_number_cap(self, name):
        build, _ = VALUE_TYPES[name]
        with pytest.raises(ValueError, match="^photon number 4097 exceeds the supported maximum 4096$"):
            build(np.ones(4098))

    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    def test_keeps_only_a_read_only_array_that_owns_its_data(self, name):
        # a writable array, or a read-only view of one, could still change under the value
        build, _ = VALUE_TYPES[name]
        mine = np.array([0.6, 0.8])
        view = mine[:]
        view.flags.writeable = False
        for caller in (mine, view):
            stored = build(caller)
            assert not stored.flags.writeable and not np.shares_memory(stored, mine)
        owned = np.array([0.6, 0.8])
        owned.flags.writeable = False
        assert build(owned) is owned

    @pytest.mark.parametrize("n", [True, 1.0, 1.5])
    def test_density_photon_number_is_an_integer(self, n):
        with pytest.raises(TypeError, match=f"^photon number must be an integer, got {type(n).__name__}$"):
            ReducedDensity(n, {0: [0.6, 0.8]})

    def test_density_stores_its_photon_number_as_an_int(self):
        rho = ReducedDensity(np.int64(2), {0: [0.6, 0.8, 0.0]})
        assert type(rho.n_photons) is int and rho.n_photons == 2

    @pytest.mark.parametrize("n,message", [
        (-1, "^photon number must be >= 0, got -1$"),
        (5000, "^photon number 5000 exceeds the supported maximum 4096$"),
    ], ids=["negative", "past-cap"])
    def test_density_photon_number_range(self, n, message):
        with pytest.raises(ValueError, match=message):
            ReducedDensity(n, {})

    @pytest.mark.parametrize("ell", [True, 0.5, np.float64(1.0)])
    def test_lost_photon_count_is_an_integer(self, ell):
        with pytest.raises(TypeError, match=f"^lost-photon count must be an integer, got {type(ell).__name__}$"):
            ReducedDensity(1, {ell: [1.0]})
        rho = ReducedDensity(1, {np.int64(1): [1.0]})
        assert [type(key) for key in rho.factors] == [int]
        with pytest.raises(TypeError, match=f"^lost-photon count must be an integer, got {type(ell).__name__}$"):
            rho.block(ell)
