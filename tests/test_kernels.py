"""Integer kernels: small cases, big integers, and the exported names."""

import endospec._kernels as kernels

KERNEL_NAMES = [
    "mat_mul_int",
    "det_int",
    "charpoly_int",
    "minor_dets_int",
    "poly_mul_int",
    "poly_scale_sub_int",
    "row_combine_int",
    "row_content_int",
    "row_divide_int",
]


def test_backend_reported():
    assert kernels.BACKEND == "pure"


def test_pure_kernels_small_cases():
    assert kernels.mat_mul_int([[1, 2], [3, 4]], [[5, 6], [7, 8]]) == [
        [19, 22],
        [43, 50],
    ]
    assert kernels.det_int([[1, 2], [3, 4]]) == -2
    assert kernels.det_int([[0, 1], [1, 0]]) == -1
    assert kernels.det_int([[2, 4], [1, 2]]) == 0
    assert kernels.charpoly_int([[1, -5], [1, 1]]) == [1, -2, 6]
    assert kernels.minor_dets_int(
        [[1, 2], [3, 4]], [(0,), (1,)], [(0,), (1,)]
    ) == [[1, 2], [3, 4]]
    assert kernels.poly_mul_int([1, 1], [-1, 1]) == [-1, 0, 1]
    assert kernels.poly_mul_int([], [1, 2]) == []
    assert kernels.poly_scale_sub_int(2, [1, 1], [1], [1, 1]) == [1, 1]
    assert kernels.row_combine_int([[2, 4]], [[1, 2]], 1, [2]) == [[]]
    assert kernels.row_combine_int([[1, 1], [2]], [[0, 1], []], 3, [2]) == [[3, 1], [6]]
    assert kernels.row_content_int([[6, 9], [3]]) == 3
    assert kernels.row_content_int([[], []]) == 0
    assert kernels.row_divide_int([[6, 9], [3]], 3) == [[2, 3], [1]]


def test_big_integer_path():
    # values far beyond machine words must stay exact
    big = 10**40
    a = [[big, 1], [0, big]]
    assert kernels.det_int(a) == big * big
    assert kernels.charpoly_int(a) == [1, -2 * big, big * big]
    assert kernels.poly_mul_int([big, big], [big]) == [big * big, big * big]


def test_all_kernels_exported():
    for name in KERNEL_NAMES:
        assert callable(getattr(kernels, name))
