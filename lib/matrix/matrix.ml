open Nab_field

type t = { nr : int; nc : int; data : int array (* row-major *) }

let create nr nc =
  if nr < 0 || nc < 0 then invalid_arg "Matrix.create: negative dimension";
  { nr; nc; data = Array.make (nr * nc) 0 }

let init nr nc f =
  if nr < 0 || nc < 0 then invalid_arg "Matrix.init: negative dimension";
  { nr; nc; data = Array.init (nr * nc) (fun k -> f (k / nc) (k mod nc)) }

let identity n = init n n (fun i j -> if i = j then 1 else 0)
let rows a = a.nr
let cols a = a.nc

let get a i j =
  if i < 0 || i >= a.nr || j < 0 || j >= a.nc then invalid_arg "Matrix.get";
  a.data.((i * a.nc) + j)

let set a i j v =
  if i < 0 || i >= a.nr || j < 0 || j >= a.nc then invalid_arg "Matrix.set";
  let data = Array.copy a.data in
  data.((i * a.nc) + j) <- v;
  { a with data }

let of_arrays rows =
  let nr = Array.length rows in
  let nc = if nr = 0 then 0 else Array.length rows.(0) in
  Array.iter
    (fun r -> if Array.length r <> nc then invalid_arg "Matrix.of_arrays: ragged")
    rows;
  init nr nc (fun i j -> rows.(i).(j))

let raw a = a.data

let of_raw ~rows ~cols data =
  if rows < 0 || cols < 0 || Array.length data <> rows * cols then
    invalid_arg "Matrix.of_raw: length mismatch";
  { nr = rows; nc = cols; data }

let to_arrays a = Array.init a.nr (fun i -> Array.sub a.data (i * a.nc) a.nc)
let row a i = Array.sub a.data (i * a.nc) a.nc
let col a j = Array.init a.nr (fun i -> get a i j)
let transpose a = init a.nc a.nr (fun i j -> get a j i)
let equal a b = a.nr = b.nr && a.nc = b.nc && a.data = b.data
let is_zero a = Array.for_all (fun x -> x = 0) a.data

let add f a b =
  if a.nr <> b.nr || a.nc <> b.nc then invalid_arg "Matrix.add: shape mismatch";
  (* char 2: matrix addition is one fused XOR pass (the kernel's a = 1
     axpy), not a per-element closure through the field descriptor. *)
  let data = Array.copy a.data in
  Kernel.axpy_row (Kernel.of_field f) ~a:1 ~x:b.data ~y:data;
  { a with data }

let mul f a b =
  if a.nc <> b.nr then invalid_arg "Matrix.mul: shape mismatch";
  let k = Kernel.of_field f in
  let c = Array.make (a.nr * b.nc) 0 in
  for i = 0 to a.nr - 1 do
    Kernel.mul_row_matrix k ~x:a.data ~xoff:(i * a.nc) ~rows:a.nc ~b:b.data ~boff:0
      ~cols:b.nc ~y:c ~yoff:(i * b.nc)
  done;
  { nr = a.nr; nc = b.nc; data = c }

let scale f s a =
  let data = Array.copy a.data in
  Kernel.scal_row (Kernel.of_field f) ~a:s ~x:data;
  { a with data }

let vec_mul f x a =
  if Array.length x <> a.nr then invalid_arg "Matrix.vec_mul: shape mismatch";
  let y = Array.make a.nc 0 in
  Kernel.mul_row_matrix (Kernel.of_field f) ~x ~xoff:0 ~rows:a.nr ~b:a.data ~boff:0
    ~cols:a.nc ~y ~yoff:0;
  y

let mul_vec f a x =
  if Array.length x <> a.nc then invalid_arg "Matrix.mul_vec: shape mismatch";
  let k = Kernel.of_field f in
  Array.init a.nr (fun i -> Kernel.dot k ~x:a.data ~xoff:(i * a.nc) ~y:x ~yoff:0 ~len:a.nc)

let hcat a b =
  if a.nr <> b.nr then invalid_arg "Matrix.hcat: row mismatch";
  init a.nr (a.nc + b.nc) (fun i j ->
      if j < a.nc then get a i j else get b i (j - a.nc))

let vcat a b =
  if a.nc <> b.nc then invalid_arg "Matrix.vcat: column mismatch";
  init (a.nr + b.nr) a.nc (fun i j ->
      if i < a.nr then get a i j else get b (i - a.nr) j)

let sub_matrix a ~row ~col ~rows ~cols =
  if row < 0 || col < 0 || rows < 0 || cols < 0 || row + rows > a.nr || col + cols > a.nc
  then invalid_arg "Matrix.sub_matrix: out of range";
  init rows cols (fun i j -> get a (row + i) (col + j))

let select_cols a js =
  let js = Array.of_list js in
  Array.iter (fun j -> if j < 0 || j >= a.nc then invalid_arg "Matrix.select_cols") js;
  init a.nr (Array.length js) (fun i j -> get a i js.(j))

let map f a = { a with data = Array.map f a.data }
let random fld nr nc st = init nr nc (fun _ _ -> Gf2p.random fld st)

let pp f fmt a =
  Format.fprintf fmt "@[<v>";
  for i = 0 to a.nr - 1 do
    if i > 0 then Format.fprintf fmt "@,";
    Vec.pp f fmt (row a i)
  done;
  Format.fprintf fmt "@]"
