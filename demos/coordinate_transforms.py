"""The seven-slot generators as signed permutations of six coordinates.

The twelve labels of the second seven-slot family stand for six free
coordinates and their negatives: label k is the coordinate x_k, a quarter
sum of the seven parameters, and kbar is -x_k.  Each of the six generators
moves the labels as an even signed permutation of the coordinates, so the
group they generate sits inside W(D6), of order 2^5 * 6! = 23,040.  The
script prints the coordinates, each generator's signed permutation and two
group orders: that of the six permutations, and that of the six generators
paired with their eight-slot matches in Q.  Both are 23,040, so Q is
isomorphic to W(D6).

Run:  python3 demos/coordinate_transforms.py
"""

from hyperweyl.coxeter import d6_certificate


def main():
    cert = d6_certificate()
    print("the six coordinates (kbar is -x_k):")
    for k, form in cert["coordinates"].items():
        print(f"  x_{k} = {form}")

    print("\neach generator's images of the labels 1..6:")
    for gen, images in cert["signed_permutations"].items():
        print(f"  {gen:<3} -> {' '.join(f'{img:>4}' for img in images)}")

    print(f"\nevery generator an even signed permutation: {cert['even']}")
    print(f"order of the group on the 12 labels: {cert['order']}")
    print(f"order of the bridged group on 56 + 12 labels: {cert['bridged_order']}")


if __name__ == "__main__":
    main()
