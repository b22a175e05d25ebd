import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdpi.channels import (
    choi,
    counterexample_map,
    from_choi,
    from_kraus,
    from_matrix,
    identity_map,
    random_cptp,
    transpose_map,
)
from qdpi.linalg import DEFAULT_TOL, DomainError, psd
from qdpi.sampling import random_density, random_hermitian, rng_for_trial
from qdpi.serialize import (
    FormatError,
    SCHEMA_VERSION,
    canonical_json,
    channel_from_dict,
    channel_to_dict,
    choi_to_dict,
    decode_extended,
    encode_extended,
    load_json,
    matrix_from_dict,
    matrix_to_dict,
    save_json,
)


def test_canonical_float_formatting():
    assert canonical_json({"x": 0.0}) == '{"x": 0.0}'
    assert canonical_json({"x": -0.0}) == '{"x": -0.0}'
    assert canonical_json({"x": 1.0}) == '{"x": 1.0}'
    assert canonical_json({"x": 0.1}) == '{"x": 0.1}'


def test_canonical_json_preserves_insertion_order():
    assert canonical_json({"b": 1, "a": 2}) == '{"b": 1, "a": 2}'


def test_canonical_json_rejects_nonfinite_floats():
    with pytest.raises(FormatError):
        canonical_json({"x": math.inf})
    with pytest.raises(FormatError):
        canonical_json({"x": math.nan})


def test_extended_encoding_round_trip():
    assert encode_extended(math.inf) == "+inf"
    assert encode_extended(-math.inf) == "-inf"
    assert decode_extended("+inf") == math.inf
    assert decode_extended("-inf") == -math.inf
    assert decode_extended(1.5) == 1.5
    with pytest.raises(FormatError):
        encode_extended(math.nan)
    with pytest.raises(FormatError):
        decode_extended("fast")


def test_matrix_round_trip_is_byte_identical():
    rng = rng_for_trial(301, 0)
    M = random_hermitian(rng, 4)
    d1 = matrix_to_dict(M, "hermitian")
    text1 = canonical_json(d1)
    d2 = json.loads(text1)
    M2, value = matrix_from_dict(d2)
    assert value is M2
    text2 = canonical_json(matrix_to_dict(M2, "hermitian"))
    assert text1 == text2
    assert np.array_equal(M, M2)


def test_matrix_kind_validation_on_load():
    payload = matrix_to_dict(np.diag([1.0, -1.0]), "general")
    payload["kind"] = "psd"
    with pytest.raises(FormatError):
        matrix_from_dict(payload)


def test_matrix_to_dict_rejects_wrong_kind():
    with pytest.raises((FormatError, DomainError)):
        matrix_to_dict(np.diag([1.0, -1.0]), "psd")
    with pytest.raises(FormatError):
        matrix_to_dict(np.eye(2), "cursed")


def test_matrix_payload_shape_checks():
    payload = matrix_to_dict(np.eye(2), "general")
    broken = dict(payload)
    broken["re"] = [[1.0]]
    with pytest.raises(FormatError):
        matrix_from_dict(broken)
    for bad in (math.nan, math.inf):
        broken["re"] = [[1.0, 0.0], [0.0, bad]]
        with pytest.raises(FormatError):
            matrix_from_dict(broken)


def test_load_json_rejects_raw_nonfinite_constants(tmp_path):
    path = tmp_path / "m.json"
    for raw in ("NaN", "Infinity", "-Infinity"):
        path.write_text('{"x": [1.0, %s]}' % raw)
        with pytest.raises(FormatError):
            load_json(path)


def test_save_and_load_json_round_trip(tmp_path):
    path = tmp_path / "m.json"
    payload = matrix_to_dict(np.diag([0.25, 0.75]), "density")
    save_json(path, payload)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    again = load_json(path)
    save_json(path, again)
    assert path.read_bytes() == raw


def test_save_and_load_json_keep_the_sign_of_zero(tmp_path):
    path = tmp_path / "m.json"
    save_json(path, matrix_to_dict(np.array([[1.0, -0.0], [-0.0, 0.0]]), "hermitian"))
    re = load_json(path)["re"]
    assert re == [[1.0, 0.0], [0.0, 0.0]]
    assert np.signbit(re).tolist() == [[False, True], [True, False]]


def test_loaded_matrix_keeps_the_sign_of_every_zero():
    M = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]])
    back, _ = matrix_from_dict(json.loads(canonical_json(matrix_to_dict(M, "general"))))
    assert back.tobytes() == M.tobytes()


def test_channel_round_trip_prefers_family_descriptor():
    phi = random_cptp(3, seed=13)
    payload = channel_to_dict(phi)
    assert payload["representation"] == "family"
    back = channel_from_dict(payload)
    assert np.array_equal(back.matrix, phi.matrix)
    text = canonical_json(payload)
    assert canonical_json(channel_to_dict(back)) == text


def test_named_fixture_maps_serialize_as_families():
    for phi in (counterexample_map(), transpose_map(2)):
        payload = channel_to_dict(phi)
        assert payload["representation"] == "family"
        back = channel_from_dict(payload)
        assert np.array_equal(back.matrix, phi.matrix)


def test_channel_round_trip_kraus_path():
    # descriptor-free Kraus maps serialize through their operators
    phi = from_kraus([np.diag([1.0, 0.0]) / math.sqrt(2), np.diag([0.0, 1.0])])
    payload = channel_to_dict(phi)
    assert payload["representation"] == "kraus"
    back = channel_from_dict(payload)
    assert back.kraus is not None
    rng = rng_for_trial(302, 0)
    X = random_hermitian(rng, 2)
    assert np.array_equal(back.apply(X), phi.apply(X))
    assert canonical_json(channel_to_dict(back)) == canonical_json(payload)


def test_channel_round_trip_matrix_path():
    phi = from_matrix(transpose_map(2).matrix)
    payload = channel_to_dict(phi)
    assert payload["representation"] == "superop_matrix"
    back = channel_from_dict(payload)
    assert np.array_equal(back.matrix, phi.matrix)


def test_channel_choi_representation_round_trip():
    phi = random_cptp(2, seed=14)
    C = choi(phi)
    payload = choi_to_dict(phi)
    assert payload == {"schema_version": SCHEMA_VERSION, "dim_in": 2, "dim_out": 2, "representation": "choi",
                       "re": C.real.tolist(), "im": C.imag.tolist()}
    back = channel_from_dict(payload)
    assert np.allclose(back.matrix, phi.matrix, atol=1e-12)
    assert back.certificate.tag == "completely_positive"


def test_choi_payload_is_certified_under_the_given_tolerances():
    # smallest Choi eigenvalue -5e-10: below the default psd_tolerance, within 1e-8
    C = choi(identity_map(2)) - 5e-10 * np.eye(4)
    payload = {"schema_version": SCHEMA_VERSION, "dim_in": 2, "dim_out": 2, "representation": "choi",
               "re": C.real.tolist(), "im": C.imag.tolist()}
    loose = dataclasses.replace(DEFAULT_TOL, psd_tolerance=1e-8)
    assert channel_from_dict(payload).certificate.tag == "unverified"
    assert channel_from_dict(payload, loose).certificate.tag == "completely_positive"
    assert from_choi(C, 2, loose).certificate.tag == "completely_positive"


def test_channel_from_dict_validates_schema_and_dims():
    phi = random_cptp(2, seed=15)
    payload = channel_to_dict(phi)
    bad = dict(payload)
    bad["schema_version"] = "0"
    with pytest.raises(FormatError):
        channel_from_dict(bad)
    bad = dict(payload)
    bad["dim_in"] = 3
    with pytest.raises(FormatError):
        channel_from_dict(bad)


def test_density_kind_validates_unit_trace():
    with pytest.raises((FormatError, DomainError)):
        matrix_to_dict(np.diag([0.5, 0.1]), "density")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_matrix_round_trips_are_stable_for_random_densities(trial):
    rng = rng_for_trial(303, trial)
    rho = random_density(rng, 3)
    text1 = canonical_json(matrix_to_dict(rho, "density"))
    M, _ = matrix_from_dict(json.loads(text1))
    text2 = canonical_json(matrix_to_dict(M, "density"))
    assert text1 == text2


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        max_size=6,
    )
)
def test_canonical_json_fixed_point_on_float_dicts(payload):
    text1 = canonical_json(payload)
    text2 = canonical_json(json.loads(text1))
    assert text1 == text2


def test_schema_version_is_one():
    assert SCHEMA_VERSION == "1"
    payload = matrix_to_dict(np.eye(2), "projector")
    assert payload["schema_version"] == "1"


def test_matrix_to_dict_of_validated_value_runs_no_eigensolve(eig_sizes):
    rho = random_density(rng_for_trial(5, 0), 3)
    v = psd(rho)
    del eig_sizes[:]
    payload = matrix_to_dict(v, "density")
    assert eig_sizes == []
    assert payload == matrix_to_dict(v.matrix, "density")
